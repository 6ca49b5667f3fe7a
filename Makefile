# doxmeter build targets. Everything is pure-stdlib Go; no network needed.

GO ?= go

.PHONY: all build fmt-check vet test test-race fuzz-smoke chaos resume-soak check bench bench-quick bench-json bench-check profile loadtest examples run-pipeline clean

all: check

# The default verification path: build, a gofmt check over every tracked
# Go file, vet, tests, the race detector over the concurrent pipeline
# (crawler fan-out, worker pool, monitor sweep, chaos suite), a short fuzz
# smoke over every parser that eats network bytes, and the hot-path
# benchmark regression gate.
check: build fmt-check vet test test-race fuzz-smoke bench-check

build:
	$(GO) build ./...

# Fails, listing the files, when any tracked Go file is not gofmt-clean.
fmt-check:
	@out="$$(gofmt -l $$(git ls-files '*.go'))"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The second run repeats internal/parallel ten times: its claim counter is
# shared by every worker of every fan-out, and an interleaving the race
# detector misses in one run can show in another.
test-race:
	$(GO) test -race ./...
	$(GO) test -race -count=10 ./internal/parallel

# Native fuzzing, 5s per target: every parser fed by the network (listing,
# catalog, thread, Retry-After header, profile HTML), the text-pipeline
# entry points, the checkpoint readers (delta codec, full snapshot,
# commit log) and the §7 services' delta journals. Each invocation names
# one target because go test allows only one -fuzz pattern per package
# run.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -fuzz=FuzzParseListing -fuzztime=$(FUZZTIME) -run NONE ./internal/crawler
	$(GO) test -fuzz=FuzzParseCatalog -fuzztime=$(FUZZTIME) -run NONE ./internal/crawler
	$(GO) test -fuzz=FuzzParseThread -fuzztime=$(FUZZTIME) -run NONE ./internal/crawler
	$(GO) test -fuzz=FuzzParseRetryAfter -fuzztime=$(FUZZTIME) -run NONE ./internal/crawler
	$(GO) test -fuzz=FuzzParseProfile -fuzztime=$(FUZZTIME) -run NONE ./internal/monitor
	$(GO) test -fuzz=FuzzConvert -fuzztime=$(FUZZTIME) -run NONE ./internal/htmltext
	$(GO) test -fuzz=FuzzProbeEquivalence -fuzztime=$(FUZZTIME) -run NONE ./internal/htmltext
	$(GO) test -fuzz=FuzzExtract$$ -fuzztime=$(FUZZTIME) -run NONE ./internal/extract
	$(GO) test -fuzz=FuzzExtractKernelEquivalence -fuzztime=$(FUZZTIME) -run NONE ./internal/extract
	$(GO) test -fuzz=FuzzTransform -fuzztime=$(FUZZTIME) -run NONE ./internal/tfidf
	$(GO) test -fuzz=FuzzNormalizeEquivalence -fuzztime=$(FUZZTIME) -run NONE ./internal/dedup
	$(GO) test -fuzz=FuzzScorerEquivalence -fuzztime=$(FUZZTIME) -run NONE ./internal/classifier
	$(GO) test -fuzz=FuzzDeltaCodecRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s -run NONE ./internal/store
	$(GO) test -fuzz=FuzzDecodeSnapshot -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s -run NONE ./internal/store
	$(GO) test -fuzz=FuzzFileEntries -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s -run NONE ./internal/store
	$(GO) test -fuzz=FuzzServiceDeltas -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s -run NONE ./internal/stream

# Long chaos soak: the full chaos suites under the race detector, including
# the study-level heavy-profile soak (DOXMETER_CHAOS_SOAK gates it), the
# fused-vs-reference kernel equivalence study (sequential and parallel, with
# fault injection live), the service-mode kill/resume keystone (the §7
# services rebuilt from checkpoints alone, full and delta cuts), plus the
# randomized kill/resume soak and a longer fuzz pass over the
# network-facing parsers and checkpoint readers.
chaos:
	DOXMETER_CHAOS_SOAK=1 $(GO) test -race -count=1 -timeout 30m \
		./internal/faults ./internal/crawler ./internal/monitor
	$(GO) test -count=1 -timeout 30m -run 'TestStudyKernelEquivalence' -v ./internal/core
	$(GO) test -count=1 -timeout 30m -run 'TestServiceResume' -v ./internal/core
	$(MAKE) resume-soak
	$(MAKE) fuzz-smoke FUZZTIME=30s

# Randomized kill/resume soak: durable studies killed at random day
# boundaries across parallelism and fault settings, resumed, and compared
# bit for bit against uninterrupted baselines. The soak logs its RNG seed
# so a failure replays exactly.
resume-soak:
	DOXMETER_RESUME_SOAK=1 $(GO) test -race -count=1 -timeout 30m \
		-run 'TestResumeSoak' -v ./internal/core

# Regenerate every table and figure (scale 0.25 shared study; ~3-5 min).
bench:
	$(GO) test -bench=. -benchmem -run NONE .

# The benchmarks behind the bench-check regression gate: the
# classify/tokenize/extract hot paths and the prepare stage they make up
# (the HTML probe on a plain-text paste, PrepareBatch over a crawl-shaped
# corpus slice), all cheap to set up, plus the delta
# checkpoint pair, which share one delta-mode study built on first use —
# the setup run is a few minutes, the gate keeps the <50 ms/<5 MB
# incremental-day budget honest. Study (one miniature study at a fixed
# seed, NewStudy plus Run) is the whole-pipeline allocation gate.
# Calibrate is the fixed machine-speed
# reference benchjson uses to normalize the gate against CPU-frequency
# and noisy-neighbor drift between the baseline run and the check run.
HOT_BENCH = Calibrate|ClassifyHot|ClassifyReference|TokenizeZeroAlloc|IsProbablyHTML|PrepareBatch|Extract$$|ExtractFused|CheckpointDelta|CheckpointCompaction|AlertFanout|Study$$

# Faster spot check of the headline artifacts.
bench-quick:
	$(GO) test -bench='Table1|Table10|Figure1|CheckpointRoundTrip' -benchtime=3x -run NONE .
	$(GO) test -bench='$(HOT_BENCH)' -benchtime=0.3s -benchmem -run NONE .

# Machine-readable benchmarks: the bench-quick artifact set plus the
# hot-path set, parsed into BENCH_results.json (name, iterations, ns/op,
# B/op, allocs/op) so runs can be stored and diffed without scraping text.
bench-json:
	( $(GO) test -bench='Table1|Table10|Figure1|CheckpointRoundTrip' -benchtime=3x -benchmem -run NONE . && \
	  $(GO) test -bench='$(HOT_BENCH)' -benchtime=0.3s -count=3 -benchmem -run NONE . ) \
		| $(GO) run ./cmd/benchjson -out BENCH_results.json

# Benchmark regression gate: re-run the hot-path set and fail if any shared
# benchmark slowed more than MAX_REGRESS vs the committed BENCH_results.json,
# or grew its B/op / allocs/op beyond MAX_ALLOC_REGRESS. Both sides run
# -count=3 and the gate compares fastest-vs-fastest (smallest-vs-smallest
# for memory) samples, which filters scheduler noise (noise only ever slows
# a run down). The allocation gates are the tight contract: B/op and
# allocs/op are deterministic properties of the code, identical on any
# host, so 10% (and exactly-0 for the recorded zero-alloc kernels) is
# enforceable everywhere. Wall-clock is not: same-code hot-set runs on the
# shared reference VM measure ±30-80% raw swings between windows (hypervisor
# co-tenants moving LLC/memory-bandwidth pressure the in-guest calibration
# loop cannot fully track — calibration normalizes slow windows down but is
# excuse-only, see cmd/benchjson), so the timed tolerance sits above that
# measured weather and exists to catch order-of-magnitude breakage, not
# percent-level drift.
MAX_REGRESS ?= 100%
MAX_ALLOC_REGRESS ?= 10%
bench-check:
	$(GO) test -bench='$(HOT_BENCH)' -benchtime=0.3s -count=3 -benchmem -run NONE . \
		| $(GO) run ./cmd/benchjson -baseline BENCH_results.json -max-regress $(MAX_REGRESS) \
			-max-alloc-regress $(MAX_ALLOC_REGRESS) -out /dev/null

# CPU, heap and allocation profiles from the pipeline-level benchmark
# (the whole-study run), written under profiles/ (gitignored). Read with
# `go tool pprof profiles/<name>`; -sample_index=alloc_objects on the .mem
# profiles shows allocation counts, which is what the zero-copy ingest work
# is budgeted in.
profile:
	mkdir -p profiles
	$(GO) test -bench='Study$$' -benchtime=3x -benchmem -run NONE \
		-cpuprofile profiles/study.cpu -memprofile profiles/study.mem -o profiles/doxmeter.test .
	@echo "profiles written; e.g.: go tool pprof -sample_index=alloc_objects profiles/doxmeter.test profiles/study.mem"

# Load-test smoke: doxload drives an in-process doxsites stack for a few
# seconds and exits nonzero unless at least 20% of requests succeed, so a
# broken serving or telemetry path fails the target.
loadtest:
	$(GO) run ./cmd/doxload -duration 3s -rate 300 -concurrency 8 \
		-scale 0.005 -days 30 -min-success 0.2

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/gamerdox
	$(GO) run ./examples/monitorosn
	$(GO) run ./examples/notifyservice

run-pipeline:
	$(GO) run ./cmd/doxpipeline -scale 0.05

# Artifacts required by the reproduction checklist.
outputs:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt

clean:
	rm -f dox.model figure2.dot test_output.txt bench_output.txt BENCH_results.json
