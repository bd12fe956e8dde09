# Developer entry points. CI runs the same targets so local and CI
# results stay comparable.

# pipefail keeps speedup-check honest: if `go test -bench` itself fails,
# the target must fail, not inherit the exit status of the awk after it.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go

.PHONY: test race fuzz-smoke speedup-check distfleet-smoke scenario-suite fullscale fullscale-single lint

# test runs CI's gofmt and vet steps first. bench/ is its own module
# (replace repro => ../), so ./... never reaches it; the last line builds
# it against this tree and runs its smoke-size workloads, which check
# every hash in bench/golden.json.
test:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) build ./... && $(GO) test ./...
	$(GO) vet -C bench . && $(GO) test -C bench .

race:
	$(GO) test -race ./...

# fuzz-smoke runs every fuzz target in the tree for five seconds past its
# seed corpus, one package:target pair at a time. Names are anchored
# because FuzzParse exists in both internal/wire and internal/scenario.
# A crasher becomes a committed corpus seed (testdata/fuzz) plus its fix.
FUZZ_TARGETS := \
	internal/behavior:FuzzSortQueries \
	internal/dist:FuzzFitZipf \
	internal/dist:FuzzKS \
	internal/dist:FuzzFitters \
	internal/dist:FuzzPow \
	internal/engine:FuzzKeyedReplayEquivalence \
	internal/handshake:FuzzReadRequest \
	internal/ingest:FuzzDecodeFrame \
	internal/ingest:FuzzSequencedLane \
	internal/obs:FuzzIngestLine \
	internal/obs:FuzzWriteTimeline \
	internal/scenario:FuzzParse \
	internal/simtime:FuzzCalendarHeapEquivalence \
	internal/stream:FuzzMergeAgainstBatch \
	internal/wire:FuzzParse \
	internal/wire:FuzzKeywordKey \
	internal/wire:FuzzStreamReader
fuzz-smoke:
	for t in $(FUZZ_TARGETS); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 5s ./$${t%%:*}; \
	done

# speedup-check proves the parallel characterization pipeline on a
# multi-core host: ≥ 2× over its sequential reference at GOMAXPROCS
# workers. The awk divides the sequential benchmark's ns/op by the
# parallel one's, prints the ratio, and exits 1 below 2.0 or when either
# result is missing. CI runs this on its 4-vCPU runner; on one or two
# cores it fails by construction — that is the point. The simulation has
# no sequential reference left to gate against: the engine runs every
# vantage on its own goroutine, one path.
speedup-check:
	$(GO) test -run '^$$' -bench 'BenchmarkCharacterizeFull(Sequential|Parallel)$$' -benchtime=2s ./internal/core | \
		awk '{ print } \
		     /^BenchmarkCharacterizeFullSequential/ { seq = $$3 } \
		     /^BenchmarkCharacterizeFullParallel/ { par = $$3 } \
		     END { if (!seq || !par) { print "speedup-check: missing benchmark result"; exit 1 } \
		           r = seq / par; printf "speedup %.2fx (need >= 2.0x)\n", r; exit (r < 2.0) }'

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
# ultrapeer nodes records all 4,361,355 arrivals (per-node 200-connection
# caps never bind: the busiest node peaks at 158 concurrent connections)
# through the engine's bounded-memory pipeline — bounded arrival
# producer, per-node event emission, online k-way merge — with the live
# sketch layer on (-online). On a two-core x86-64 VM the simulate phase
# takes ≈82 s wall at 2.13 GiB peak RSS (-perf reports both), with the
# 2 GiB soft memory limit analyze applies when GOMEMLIMIT is unset; the
# whole run, characterize and -tracehash included, takes ≈2.3 min wall,
# ≈217 CPU-s and 2.58 GiB. `-tracehash` prints the SHA-256 ROADMAP.md
# carries.
fullscale:
	$(GO) run ./cmd/analyze -simulate -scale 1.0 -days 40 -nodes 48 -online -tracehash -only summary -perf

# fullscale-single is the paper's literal single-vantage deployment, whose
# 200-connection cap limits the recorded trace to 196,908 of the 4,361,355
# arrivals (298,483 hop-1 queries).
fullscale-single:
	$(GO) run ./cmd/analyze -simulate -scale 1.0 -days 40 -only summary -perf

# lint mirrors CI's lint job for local use; both tools are fetched on
# demand (they are not vendored).
lint:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1.1 ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@latest ./...
