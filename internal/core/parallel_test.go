package core_test

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/trace"
)

var (
	parOnce  sync.Once
	parTrace *trace.Trace
)

func parallelTrace(t testing.TB) *trace.Trace {
	t.Helper()
	parOnce.Do(func() {
		cfg := capture.DefaultConfig(77, 0.02)
		cfg.Workload.Days = 3
		parTrace = engine.New(engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 1}}).Run(nil)
	})
	return parTrace
}

// TestParallelSequentialReportIdentical is the determinism contract of the
// parallel pipeline: for a fixed seed, the fully rendered report must be
// byte-identical between the sequential mode (Workers: 1) and a heavily
// oversubscribed parallel mode.
func TestParallelSequentialReportIdentical(t *testing.T) {
	tr := parallelTrace(t)
	render := func(c *core.Characterization) []byte {
		var buf bytes.Buffer
		if err := report.RenderAll(&buf, c); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seq := render(core.CharacterizeOpts(tr, core.Options{Workers: 1}))
	for _, workers := range []int{2, 8, 32} {
		par := render(core.CharacterizeOpts(tr, core.Options{Workers: workers}))
		if !bytes.Equal(seq, par) {
			i := 0
			for i < len(seq) && i < len(par) && seq[i] == par[i] {
				i++
			}
			lo, hi := i-80, i+80
			if lo < 0 {
				lo = 0
			}
			if hi > len(seq) {
				hi = len(seq)
			}
			t.Fatalf("workers=%d: report diverges at byte %d:\nsequential: %q",
				workers, i, seq[lo:hi])
		}
	}
}

// TestReportRunToRunStable guards against reintroducing map-iteration
// nondeterminism in the renderers: two runs of the same mode must already
// be byte-identical (this failed before charts took ordered series).
func TestReportRunToRunStable(t *testing.T) {
	tr := parallelTrace(t)
	render := func() []byte {
		var buf bytes.Buffer
		if err := report.RenderAll(&buf, core.CharacterizeOpts(tr, core.Options{Workers: 1})); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("two sequential renders of the same trace differ")
	}
}

// TestCharacterizeParallelStress races several full parallel pipelines over
// one shared trace; under -race this exercises every fan-out path for data
// races on the shared sessions slice.
func TestCharacterizeParallelStress(t *testing.T) {
	tr := parallelTrace(t)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := core.CharacterizeOpts(tr, core.Options{Workers: 4})
			if len(c.Sessions) == 0 {
				t.Error("no sessions")
			}
		}()
	}
	wg.Wait()
}
