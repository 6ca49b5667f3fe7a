// Command perfbench is the repository's benchmark. It runs a workload
// through the public core.NewStudy / Study.Run API, checks the outputs and
// prints the end-to-end metrics; with -trace 1 it runs the traced pass
// instead and prints the per-layer cost ledger. See README.md.
//
//	go build -o perfbench . && ./perfbench -workload study -seed 1 -seconds 55 -trace 0
//
// Every rep runs in a child process of its own, so peak RSS and heap
// state are per rep. A workload's report ends with one JSON line with the
// keys correct, attempted, failed and metrics; with one -workload that is
// the last line of standard output. Without -workload the three
// workloads run in turn.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: study, service or tracking; empty runs all three in turn")
		seed    = flag.Int64("seed", 1, "workload seed; the study seed, so it fixes every input")
		seconds = flag.Int("seconds", 55, "measurement budget in seconds")
		trace   = flag.Int("trace", 0, "0 prints the end-to-end metrics, 1 runs the traced pass and prints the per-layer ledger")
		dir     = flag.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for checkpoint state")
		child   = flag.String("rep", "", "run one rep in this process and print it as JSON: e2e, ref, p1 or traced")
	)
	flag.Parse()
	names := []string{*name}
	if *name == "" && *child == "" {
		names = []string{"study", "service", "tracking"}
	}
	for _, n := range names {
		w, ok := workloads[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", n)
			os.Exit(2)
		}
		var err error
		d := &runner{w: w, seed: *seed, budget: time.Duration(*seconds) * time.Second, dir: *dir}
		switch {
		case *child != "":
			err = runChild(w, *seed, *child, *dir)
		case *trace == 1:
			err = d.traced()
		default:
			err = d.endToEnd()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
	}
}

// runChild runs one rep of kind in this process and prints its result.
func runChild(w workload, seed int64, kind, dir string) error {
	dir = filepath.Join(dir, w.name+"-"+strconv.FormatInt(seed, 10)+"-"+strconv.Itoa(os.Getpid()))
	var res *repResult
	var err error
	switch kind {
	case "e2e":
		res, err = e2eRep(w, seed, parallelism, dir, true)
	case "ref":
		res, err = e2eRep(w, seed, parallelism, dir, false)
	case "p1":
		res, err = e2eRep(w, seed, 1, dir, false)
	case "traced":
		res, err = tracedRep(w, seed, dir)
	default:
		return fmt.Errorf("unknown rep kind %q", kind)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(res)
}

// e2eRep runs one untraced rep; with resume set it also times Resume.
func e2eRep(w workload, seed int64, par int, dir string, resume bool) (*repResult, error) {
	r, err := runRep(w, seed, repOptions{parallelism: par, dir: dir})
	if err != nil {
		return nil, err
	}
	if !resume {
		r.release()
		return &r.res, nil
	}
	if err := r.finish(1); err != nil {
		return nil, err
	}
	return &r.res, nil
}

// runner runs reps of one workload in child processes and reports.
type runner struct {
	w      workload
	seed   int64
	budget time.Duration
	dir    string
	// attempted and failed count operations across every rep; a rep that
	// fails an output check counts as one more failed operation.
	attempted, failed int64
	problems          []string
	digest            string
}

// minReps is the fewest reps a measurement reports medians over.
const minReps = 3

// child runs one rep of kind for workload w in a fresh process.
func (d *runner) child(w workload, kind string) (*repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-workload", w.name, "-seed", strconv.FormatInt(d.seed, 10), "-dir", d.dir, "-rep", kind)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s %s rep: %w", w.name, kind, err)
	}
	var res repResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s %s rep output: %w", w.name, kind, err)
	}
	return &res, nil
}

// account adds one rep's operations and checks to the run's tally. Every
// rep of a run must produce the same results digest.
func (d *runner) account(label string, r *repResult) {
	d.attempted += r.Attempted + 1
	d.failed += r.Failed
	if d.digest == "" {
		d.digest = r.Digest
	} else if r.Digest != d.digest {
		r.problem("results digest %s differs from the run's %s", short(r.Digest), short(d.digest))
	}
	if len(r.Problems) > 0 {
		d.failed++
		for _, p := range r.Problems {
			d.problems = append(d.problems, label+": "+p)
		}
	}
}

func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}

// reference pins the batch digest the service workload must reproduce:
// the same seed and scale through the batch engine. It skips the resume,
// which the study workload checks.
func (d *runner) reference() error {
	if !d.w.service {
		return nil
	}
	batch := d.w
	batch.name, batch.service = "study", false
	r, err := d.child(batch, "ref")
	if err != nil {
		return err
	}
	d.account("batch reference", r)
	return nil
}

// endToEnd measures the untraced workload: reps until the budget is
// spent, medians across reps.
func (d *runner) endToEnd() error {
	if err := d.reference(); err != nil {
		return err
	}
	var reps []*repResult
	start := time.Now()
	for len(reps) < minReps || time.Since(start)+time.Since(start)/time.Duration(len(reps)) <= d.budget {
		r, err := d.child(d.w, "e2e")
		if err != nil {
			return err
		}
		d.account(fmt.Sprintf("rep %d", len(reps)+1), r)
		reps = append(reps, r)
	}

	fmt.Printf("workload %s  seed %d  scale %g  parallelism %d  reps %d  alerts %d\n",
		d.w.name, d.seed, d.w.scale, parallelism, len(reps), alertCount(reps))
	for i, r := range reps {
		fmt.Printf("  rep %d: setup %.3fs run %.3fs (%d docs) resume %.3fs  alloc %d B / %d docs = %.1f B/doc, %d mallocs = %.2f mallocs/doc\n",
			i+1, r.SetupS, r.RunS, r.Collected, r.ResumeS, r.AllocBytes, r.Collected,
			float64(r.AllocBytes)/float64(r.Collected), r.Mallocs, float64(r.Mallocs)/float64(r.Collected))
	}
	m := endToEndMetrics(reps)
	for _, x := range m {
		fmt.Printf("  %-14s %14.4f %s\n", x.name, x.value, x.unit)
	}
	fmt.Printf("  %-14s %14.4f s (one check resume per rep; not bounded, see README)\n", "resume_s",
		medianOf(reps, func(r *repResult) float64 { return r.ResumeS }))
	fmt.Printf("  %-14s %14.6f ratio (%d of %d operations)\n", "failed_ratio",
		float64(d.failed)/float64(d.attempted), d.failed, d.attempted)
	return d.report(m)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// medianOf is the median of f over reps.
func medianOf(reps []*repResult, f func(*repResult) float64) float64 {
	v := make([]float64, len(reps))
	for i, r := range reps {
		v[i] = f(r)
	}
	return median(v)
}

// endToEndMetrics are the medians across reps, except the alert latency
// percentiles, which pool every rep's alerts.
func endToEndMetrics(reps []*repResult) []metric {
	col := func(f func(*repResult) float64) float64 { return medianOf(reps, f) }
	var alerts []float64
	for _, r := range reps {
		alerts = append(alerts, r.AlertMS...)
	}
	sort.Float64s(alerts)
	return []metric{
		{"setup_s", col(func(r *repResult) float64 { return r.SetupS }), "s"},
		{"docs_per_s", col(func(r *repResult) float64 { return float64(r.Collected) / r.RunS }), "docs/s"},
		{"peak_rss_mb", col(func(r *repResult) float64 { return r.PeakRSSMB }), "MiB"},
		{"alert_ms_p50", quantile(alerts, 0.50), "ms"},
		{"alert_ms_p95", quantile(alerts, 0.95), "ms"},
	}
}

func alertCount(reps []*repResult) int {
	n := 0
	for _, r := range reps {
		n += len(r.AlertMS)
	}
	return n
}

// report prints the check outcome and the result line.
func (d *runner) report(ms []metric) error {
	for _, p := range d.problems {
		fmt.Println("  CHECK FAILED:", p)
	}
	out := struct {
		Correct   bool                      `json:"correct"`
		Attempted int64                     `json:"attempted"`
		Failed    int64                     `json:"failed"`
		Metrics   map[string]map[string]any `json:"metrics"`
	}{len(d.problems) == 0, d.attempted, d.failed, map[string]map[string]any{}}
	for _, x := range ms {
		out.Metrics[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// median of v; v is not modified.
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile of sorted s by linear interpolation between closest ranks.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// traced runs the traced pass: rounds of an untraced rep at the workload's
// Parallelism, an untraced rep at Parallelism 1 and a traced rep at
// Parallelism 1, until the budget is spent; medians across rounds.
func (d *runner) traced() error {
	if err := d.reference(); err != nil {
		return err
	}
	var plain, serial, traced []*repResult
	start := time.Now()
	for len(traced) == 0 || time.Since(start)+time.Since(start)/time.Duration(len(traced)) <= d.budget {
		for _, step := range []struct {
			kind string
			into *[]*repResult
		}{{"e2e", &plain}, {"p1", &serial}, {"traced", &traced}} {
			r, err := d.child(d.w, step.kind)
			if err != nil {
				return err
			}
			d.account(fmt.Sprintf("%s rep %d", step.kind, len(*step.into)+1), r)
			*step.into = append(*step.into, r)
		}
	}
	col := medianOf
	layers := map[string]float64{}
	for _, m := range layerMetrics {
		layers[m.name] = col(traced, func(r *repResult) float64 { return r.Layers[m.name] })
	}
	runS := func(r *repResult) float64 { return r.RunS }
	serialRun := col(serial, runS)
	layers["setup.rest_s"] = col(serial, func(r *repResult) float64 { return r.SetupS }) -
		layers["sim.world_s"] - layers["textgen.trainset_s"] - layers["classifier.train_s"] - layers["textgen.corpus_s"]
	layers["trace.overhead"] = col(traced, runS) / serialRun
	layers["parallel.speedup"] = serialRun / col(plain, runS)
	layers["run.alloc_bytes_per_doc"] = col(plain, func(r *repResult) float64 { return float64(r.AllocBytes) / float64(r.Collected) })
	layers["run.mallocs_per_doc"] = col(plain, func(r *repResult) float64 { return float64(r.Mallocs) / float64(r.Collected) })
	layers["run.gc_cpu_fraction"] = col(plain, func(r *repResult) float64 { return r.GCCPU })

	fmt.Printf("workload %s  seed %d  scale %g  traced pass: %d rounds of (untraced parallelism %d, untraced parallelism 1, traced parallelism 1)\n",
		d.w.name, d.seed, d.w.scale, len(traced), parallelism)
	tracedRun := col(traced, runS)
	fmt.Printf("  %-30s %10s %8s\n", "layer (traced Run)", "seconds", "share")
	var sum float64
	for _, row := range append(ledgerRows(layers, d.w.service), ledgerRow{"run.unattributed_s", layers["run.unattributed_s"]}) {
		sum += row.s
		fmt.Printf("  %-30s %10.4f %7.1f%%\n", row.name, row.s, 100*row.s/tracedRun)
	}
	fmt.Printf("  %-30s %10.4f %7.1f%%  (Run %.4f s)\n", "total", sum, 100*sum/tracedRun, tracedRun)
	for i, r := range traced {
		fmt.Printf("  kernel replay %d:", i+1)
		for _, p := range r.Replay {
			fmt.Printf("  %s %d mallocs / %d docs", p.Kernel, p.Mallocs, p.Docs)
		}
		fmt.Println()
	}
	ms := make([]metric, len(layerMetrics))
	for i, m := range layerMetrics {
		ms[i] = metric{m.name, layers[m.name], m.unit}
		fmt.Printf("  %-26s %16.4f %s\n", m.name, layers[m.name], m.unit)
	}
	return d.report(ms)
}
