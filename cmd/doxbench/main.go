// Command doxbench runs the full study and regenerates every table and
// figure from the paper's evaluation section, printing paper-vs-measured
// values side by side.
//
// Usage:
//
//	doxbench [-scale 0.25] [-seed 1709] [-parallelism 0] [-progress] [-dot figure2.dot]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"doxmeter/internal/core"
	"doxmeter/internal/experiments"
	"doxmeter/internal/netid"
)

func main() {
	var (
		scale       = flag.Float64("scale", 0.25, "corpus scale factor (1.0 = the paper's 1.74M documents)")
		seed        = flag.Int64("seed", 1709, "world seed")
		parallelism = flag.Int("parallelism", 0, "pipeline worker-pool size (0 = GOMAXPROCS, 1 = sequential); any value yields identical results")
		progress    = flag.Bool("progress", false, "print per-day study progress to stderr")
		dotPath     = flag.String("dot", "", "write the Figure 2 clique graph as Graphviz DOT to this file")
	)
	flag.Parse()

	var progressW io.Writer
	if *progress {
		progressW = os.Stderr
	}
	start := time.Now()
	s, err := core.NewStudy(core.StudyConfig{Seed: *seed, Scale: *scale, Parallelism: *parallelism, Progress: progressW})
	if err != nil {
		fatal(err)
	}
	defer s.Close()
	fmt.Fprintf(os.Stderr, "world + classifier ready in %v; running two collection periods...\n", time.Since(start).Round(time.Millisecond))
	if err := s.Run(context.Background()); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "study complete in %v\n\n", time.Since(start).Round(time.Millisecond))

	agg, _ := s.LabelSample(s.Cfg.LabelSample)

	fmt.Println(experiments.Table1(s))
	fmt.Println(experiments.Table2(experiments.MeasureTable2(s, 125)))
	fmt.Println(experiments.Table3(s))
	fmt.Println(experiments.Table4(s))
	fmt.Println(experiments.Table5(agg))
	fmt.Println(experiments.Table6(agg))
	fmt.Println(experiments.Table7(agg))
	fmt.Println(experiments.Table8(agg))
	fmt.Println(experiments.Table9(s))
	fmt.Println(experiments.Table10(s))
	fmt.Println(experiments.Figure1(s))

	fig2, dot := experiments.Figure2(s)
	fmt.Println(fig2)
	if *dotPath != "" {
		if err := os.WriteFile(*dotPath, []byte(dot), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("(Figure 2 DOT written to %s)\n\n", *dotPath)
	}

	for _, network := range []netid.Network{netid.Facebook, netid.Instagram} {
		pre, post, summary := experiments.Figure3(s, network)
		fmt.Println(summary)
		fmt.Println(pre)
		fmt.Println(post)
	}
	fmt.Println(experiments.Section63(s))
	fmt.Println(experiments.Section532(s))
	fmt.Println(experiments.SectionAbuse(s))
	fmt.Println(experiments.SectionActivity(s))
	fmt.Println(experiments.SectionCompromise(s))
	fmt.Println(experiments.Section41(s))
	if mirrors, err := experiments.SectionMirrors(s); err == nil {
		fmt.Println(mirrors)
	} else {
		fmt.Fprintln(os.Stderr, "mirror analysis failed:", err)
	}

	store := s.BuildStore("doxbench-salt")
	fmt.Printf("privacy store: %d sanitized records (categories + salted digests only; §3.3)\n", store.Len())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "doxbench:", err)
	os.Exit(1)
}
