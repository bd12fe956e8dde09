package obs

import (
	"strings"
	"testing"
)

func TestNilHandlesAreInert(t *testing.T) {
	var r *Registry
	var o *Observer
	var j *Journal

	c := r.Counter("x_total", "")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter not inert")
	}
	g := r.Gauge("x", "")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge not inert")
	}
	h := r.Histogram("x_seconds", "", []float64{1, 2})
	h.Observe(1.5)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram not inert")
	}
	r.GaugeFunc("f", "", func() float64 { return 1 })
	if got := r.Samples(); got != nil {
		t.Fatalf("nil registry samples = %v", got)
	}
	if v := r.Value("x", 42); v != 42 {
		t.Fatalf("nil registry Value fallback = %v", v)
	}
	if err := r.WritePrometheus(nil); err != nil {
		t.Fatal(err)
	}

	o.Counter("x_total", "").Inc()
	o.Gauge("x", "").Set(1)
	o.Event("e")
	o.SnapshotMetrics()
	sp := o.Begin("phase")
	sp.Child("sub").End()
	sp.End()

	j.Event("e")
	j.Heartbeat()
	j.Metrics(nil)
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	StartHeartbeat(nil, 0, nil)()
}

// TestNilObserverAllocatesNothing pins the disabled path's half of the
// overhead contract (doc.go): with no observer installed, handle
// operations and attr-less spans, events and snapshots allocate nothing.
// Attrs are left out on purpose — an A(...) value boxes at the call site.
func TestNilObserverAllocatesNothing(t *testing.T) {
	var o *Observer
	var c *Counter
	var g *Gauge
	var h *Histogram
	buckets := []float64{1, 2}
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Counter.Add", func() { c.Add(3) }},
		{"Gauge.Set", func() { g.Set(1) }},
		{"Gauge.Add", func() { g.Add(1) }},
		{"Histogram.Observe", func() { h.Observe(1.5) }},
		{"Observer.Counter.Inc", func() { o.Counter("x_total", "").Inc() }},
		{"Observer.Gauge.Set", func() { o.Gauge("x", "").Set(1) }},
		{"Observer.Histogram.Observe", func() { o.Histogram("x_seconds", "", buckets).Observe(1) }},
		{"Observer.Begin.End", func() { o.Begin("phase").End() }},
		{"Observer.Event", func() { o.Event("e") }},
		{"Observer.SnapshotMetrics", func() { o.SnapshotMetrics() }},
	} {
		if n := testing.AllocsPerRun(100, tc.op); n != 0 {
			t.Errorf("nil %s: %v allocations per call, want 0", tc.name, n)
		}
	}
}

func TestRegistryIdempotentHandles(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("arrivals_total", "help", L("node", "1"))
	b := r.Counter("arrivals_total", "other help", L("node", "1"))
	if a != b {
		t.Fatal("same name+labels returned distinct counter handles")
	}
	c := r.Counter("arrivals_total", "", L("node", "2"))
	if a == c {
		t.Fatal("distinct label sets shared a handle")
	}
	if g1, g2 := r.Gauge("pending", ""), r.Gauge("pending", ""); g1 != g2 {
		t.Fatal("gauge handles not idempotent")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind mismatch did not panic")
		}
	}()
	r.Gauge("arrivals_total", "")
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dur_seconds", "session durations", []float64{1, 4, 16})
	for _, v := range []float64{0.5, 0.9, 2, 10, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 113.4 {
		t.Fatalf("sum = %v", got)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP dur_seconds session durations",
		"# TYPE dur_seconds histogram",
		`dur_seconds_bucket{le="1"} 2`,
		`dur_seconds_bucket{le="4"} 3`,
		`dur_seconds_bucket{le="16"} 4`,
		`dur_seconds_bucket{le="+Inf"} 5`,
		"dur_seconds_sum 113.4",
		"dur_seconds_count 5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	build := func() string {
		r := NewRegistry()
		r.Gauge("z_last", "").Set(1)
		r.Counter("a_first_total", "", L("b", "2"), L("a", "1")).Inc()
		r.Counter("a_first_total", "", L("a", "1"), L("b", "1")).Add(2)
		r.GaugeFunc("m_func", "", func() float64 { return 7 })
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	a, b := build(), build()
	if a != b {
		t.Fatalf("exposition not deterministic:\n%s\n--vs--\n%s", a, b)
	}
	// Families sorted by name, series sorted by rendered (key-sorted) labels.
	wantOrder := []string{
		`a_first_total{a="1",b="1"} 2`,
		`a_first_total{a="1",b="2"} 1`,
		`m_func 7`,
		`z_last 1`,
	}
	last := -1
	for _, w := range wantOrder {
		i := strings.Index(a, w)
		if i < 0 {
			t.Fatalf("missing %q in:\n%s", w, a)
		}
		if i < last {
			t.Fatalf("out of order: %q in:\n%s", w, a)
		}
		last = i
	}
}

func TestSamplesExcludeGaugeFuncs(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(3)
	r.Gauge("g", "").Set(1.5)
	r.Histogram("h_seconds", "", []float64{1}).Observe(2)
	r.GaugeFunc("volatile_rss", "", func() float64 { return 1e9 })
	got := map[string]float64{}
	for _, s := range r.Samples() {
		got[s.Name] = s.Value
	}
	want := map[string]float64{"c_total": 3, "g": 1.5, "h_seconds_sum": 2, "h_seconds_count": 1}
	if len(got) != len(want) {
		t.Fatalf("samples = %v, want %v", got, want)
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("sample %s = %v, want %v", k, got[k], v)
		}
	}
}

func TestRegistryValueFallback(t *testing.T) {
	r := NewRegistry()
	r.Gauge("present", "").Set(9)
	if v := r.Value("present", -1); v != 9 {
		t.Fatalf("Value(present) = %v", v)
	}
	if v := r.Value("absent", -1); v != -1 {
		t.Fatalf("Value(absent) = %v", v)
	}
	// Labeled-only family has no unlabeled series: fallback applies.
	r.Counter("labeled_total", "", L("k", "v")).Inc()
	if v := r.Value("labeled_total", -1); v != -1 {
		t.Fatalf("Value(labeled_total) = %v", v)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "", L("k", "a\"b\\c\nd")).Set(1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `esc{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("bad escaping:\n%s", sb.String())
	}
}
