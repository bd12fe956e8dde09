# Developer entry points. CI runs the same targets so local and CI
# results stay comparable.

# pipefail keeps the gated pipelines honest: if `go test -bench` itself
# crashes, the gate must fail, not inherit benchjson's success.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: test race fuzz-smoke bench bench-ci obs-overhead speedup-check distfleet-smoke scenario-suite fullscale fullscale-single lint

# bench/ is its own module (replace repro => ../), so ./... never reaches
# it; the second line builds it against this tree and runs its smoke-size
# workloads, which check every hash in bench/golden.json.
test:
	$(GO) build ./... && $(GO) test ./...
	$(GO) vet -C bench . && $(GO) test -C bench .

race:
	$(GO) test -race ./...

# fuzz-smoke runs the calendar queue's order-equivalence fuzz target
# against the binary heap for ten seconds past its seed corpus.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzCalendarHeapEquivalence -fuzztime 10s ./internal/simtime

# bench runs every benchmark in every package with allocation reporting
# and writes the machine-readable result to BENCH.json (see BENCH_pr6.json
# for the committed PR-6 snapshot). Sweeping ./... keeps new package-local
# benchmarks (capture fleet, filter fan-out, vocab, stream sketches)
# tracked automatically. The phase runs append labeled wall-clock /
# peak-RSS accountings with and without the online sketch layer (-stream)
# at a fixed small scale, plus a 128-node fleet exercising the keyed tie-break's
# high-node-count regime (its sched_events_max_node records the busiest
# node's scheduling cost, O(own sessions) where chain replay paid the
# global arrival count) — the per-phase record BENCH_pr6.json pins and
# bench-ci gates.
PHASE_ARGS := -simulate -seed 2004 -scale 0.02 -days 2 -nodes 4 -only summary -perf
PHASE_ARGS_WIDE := -simulate -seed 2004 -scale 0.02 -days 1 -nodes 128 -only summary -perf
bench:
	{ $(GO) test -run '^$$' -bench . -benchmem -benchtime=1s ./... ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS) -stream -perflabel phase-stream 2>&1 >/dev/null ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS) -perflabel phase-batch 2>&1 >/dev/null ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS_WIDE) -perflabel phase-widefleet 2>&1 >/dev/null ; } | \
		$(GO) run ./cmd/benchjson -pretty > BENCH.json
	@echo wrote BENCH.json

# bench-ci is the fast CI variant: one iteration per benchmark, emitting
# JSON *and* gating against the committed PR-6 baseline so hot-path
# regressions fail the build instead of scrolling by in logs — ns/op,
# allocs/op AND the labeled phases' peak RSS (end-of-run and
# simulate-phase), so the streaming engine's memory contract is enforced,
# not promised. The tolerances are deliberately generous — CI compares a
# single -benchtime=1x iteration on an arbitrary runner against numbers
# recorded elsewhere — so only catastrophic (algorithmic) regressions
# trip it; finer-grained tracking uses `make bench` snapshots across PRs.
bench-ci: obs-overhead
	{ $(GO) test -run '^$$' -bench . -benchtime=1x -benchmem ./... ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS) -stream -perflabel phase-stream 2>&1 >/dev/null ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS) -perflabel phase-batch 2>&1 >/dev/null ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS_WIDE) -perflabel phase-widefleet 2>&1 >/dev/null ; } | \
		$(GO) run ./cmd/benchjson -compare BENCH_pr6.json \
			-tolerance 8 -ns-slack 100000 -alloc-tolerance 2 -alloc-slack 256 \
			-rss-tolerance 2 -rss-slack 134217728

# obs-overhead is the observability layer's cost gate: the hot-path
# packages' benchmarks (which run with no registry installed — the
# nil-handle fast path) plus the labeled pipeline phase runs, gated
# against the PRE-observability PR-6 baseline with the standard bench-ci
# tolerances. If internal/obs instrumentation ever costs measurable time
# on a disabled path or a phase's wall clock/RSS, this fails before the
# main bench sweep even starts.
obs-overhead:
	{ $(GO) test -run '^$$' -bench . -benchtime=1x -benchmem \
	      ./internal/engine ./internal/stream ./internal/simtime ./internal/obs . ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS) -stream -perflabel phase-stream 2>&1 >/dev/null ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS) -perflabel phase-batch 2>&1 >/dev/null ; \
	  $(GO) run ./cmd/analyze $(PHASE_ARGS_WIDE) -perflabel phase-widefleet 2>&1 >/dev/null ; } | \
		$(GO) run ./cmd/benchjson -compare BENCH_pr6.json \
			-tolerance 8 -ns-slack 100000 -alloc-tolerance 2 -alloc-slack 256 \
			-rss-tolerance 2 -rss-slack 134217728
	@echo obs-overhead PASS

# speedup-check proves the parallel characterization pipeline (PR 2/3) on
# a multi-core host: ≥ 2× over its sequential reference at 4 workers. CI
# runs this on its 4-vCPU runner; on a single core it fails by
# construction — that is the point. The simulation has no sequential
# reference left to gate against: the engine runs every vantage on its
# own goroutine, one path.
speedup-check:
	$(GO) test -run '^$$' -bench 'BenchmarkCharacterizeFull(Sequential|Parallel)$$' -benchtime=2s -benchmem . | \
		$(GO) run ./cmd/benchjson \
			-speedup 'BenchmarkCharacterizeFullSequential:BenchmarkCharacterizeFullParallel:2.0'

# distfleet-smoke proves the distributed ingest pipeline end to end:
# an in-process collector and N vantage emitter *processes* (bin/vantage)
# must drain to a trace SHA-256-identical to a single-process
# engine.Run — over clean loopback TCP, then under injected faults
# (drops, duplication, reordering, delays) with one vantage SIGKILLed
# mid-run and restarted to prove resume-from-ack, and finally with a
# vantage killed for good to prove eviction terminates the merge with the
# losses exactly accounted (dead_inputs/lost_sessions) instead of
# deadlocking the barrier. Every vantage ships its journal in-band, so
# each scenario also yields a merged fleet journal (saved under bin/ for
# `go run ./cmd/analyze -timeline`): the clean scenario runs twice and
# the two journals must be obs.Canonical-identical, and the dead-input
# journal must record heartbeat -> input_stalled -> input_evicted in
# collector-normalized time order.
distfleet-smoke:
	mkdir -p bin
	$(GO) build -o bin/vantage ./cmd/vantage
	$(GO) run ./cmd/distfleet -nodes 3 -scale 0.02 -days 2 -seed 2004 -vantage bin/vantage -fleet-journal bin/fleet.jsonl

# scenario-suite runs every committed spec under scenarios/ end to end
# and gates on the headline-metric checks each spec declares (cmd/analyze
# exits 1 on any failed check). Explicit flags override the specs
# (precedence spec < preset < flag), which is how the suite shrinks the
# big scenarios to CI scale without forking the spec files: paper40d
# runs at the repo's standard smoke shape, tenweek keeps its genuine
# 70-day horizon at 1/10 the arrival rate, and the churn/polluter specs
# run at the smoke scale their rate-ratio checks are calibrated for.
SUITE := $(GO) run ./cmd/analyze -checks -only summary
scenario-suite:
	$(SUITE) -spec scenarios/paper40d.yaml -scale 0.02 -days 2 -nodes 4
	$(SUITE) -spec scenarios/churn-recovery.yaml -scale 0.02
	$(SUITE) -spec scenarios/polluter.yaml -scale 0.02
	$(SUITE) -spec scenarios/tenweek.yaml -scale 0.002
	@echo scenario-suite PASS

# fullscale reproduces the paper's entire trace volume through the
# multi-vantage measurement fabric: 40 days at scale 1.0 across 48
# ultrapeer nodes records all ≈4.36 M arrivals (per-node 200-connection
# caps never bind; see BENCH_pr5.json for the recorded runs) through the
# engine's bounded-memory pipeline — bounded-lookahead producer, per-node
# event emission, online k-way merge — with the live sketch layer on
# (-stream). `-tracehash` prints the SHA-256 ROADMAP.md carries.
fullscale:
	$(GO) run ./cmd/analyze -simulate -scale 1.0 -days 40 -nodes 48 -stream -tracehash -only summary -perf -perflabel fullscale

# fullscale-single is the paper's literal single-vantage deployment, whose
# 200-connection cap limits the recorded trace to ≈197 k connections
# (the run recorded in BENCH_pr2.json).
fullscale-single:
	$(GO) run ./cmd/analyze -simulate -scale 1.0 -days 40 -only summary -perf

# lint mirrors CI's lint job for local use; both tools are fetched on
# demand (they are not vendored).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
