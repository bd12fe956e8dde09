package report

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/engine"
)

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, "Title", []string{"A", "Long header"}, [][]string{
		{"x", "1"},
		{"longer cell", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Title\n") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines: %q", len(lines), out)
	}
	// All data rows should have the separator-aligned columns.
	if !strings.HasPrefix(lines[1], "A ") {
		t.Errorf("header row = %q", lines[1])
	}
	if !strings.Contains(lines[4], "longer cell") {
		t.Errorf("row = %q", lines[4])
	}
}

func TestChartRendersSeries(t *testing.T) {
	ch := NewChart("test chart")
	ch.Add(Series{Name: "up", X: []float64{1, 2, 3}, Y: []float64{1, 2, 3}})
	ch.Add(Series{Name: "down", X: []float64{1, 2, 3}, Y: []float64{3, 2, 1}})
	var buf bytes.Buffer
	if err := ch.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "test chart") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Error("missing series markers")
	}
	if !strings.Contains(out, "* up") || !strings.Contains(out, "+ down") {
		t.Error("missing legend")
	}
}

func TestChartLogAxes(t *testing.T) {
	ch := NewChart("log chart")
	ch.LogX, ch.LogY = true, true
	ch.Add(Series{Name: "curve", X: []float64{1, 10, 100, 1000}, Y: []float64{1, 0.1, 0.01, 0.001}})
	var buf bytes.Buffer
	if err := ch.Render(&buf); err != nil {
		t.Fatal(err)
	}
	// Log axis labels print the delogged values.
	if !strings.Contains(buf.String(), "1e+03") && !strings.Contains(buf.String(), "1000") {
		t.Errorf("missing axis label: %q", buf.String())
	}
}

func TestChartEmptyData(t *testing.T) {
	ch := NewChart("empty")
	ch.Add(Series{Name: "none", X: nil, Y: nil})
	var buf bytes.Buffer
	if err := ch.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no data") {
		t.Errorf("expected no-data notice: %q", buf.String())
	}
}

func TestChartSkipsNonPositiveOnLogAxes(t *testing.T) {
	ch := NewChart("guarded")
	ch.LogX, ch.LogY = true, true
	ch.Add(Series{Name: "mixed", X: []float64{0, -1, 10}, Y: []float64{0.5, 1, 0.25}})
	var buf bytes.Buffer
	if err := ch.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestCSV(t *testing.T) {
	var buf bytes.Buffer
	err := CSV(&buf, []Series{
		{Name: "a,b", X: []float64{1}, Y: []float64{2}},
		{Name: "plain", X: []float64{3}, Y: []float64{4}},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "series,x,y\n") {
		t.Errorf("missing header: %q", out)
	}
	if !strings.Contains(out, `"a,b",1,2`) {
		t.Errorf("escaping failed: %q", out)
	}
	if !strings.Contains(out, "plain,3,4") {
		t.Errorf("missing row: %q", out)
	}
}

var (
	renderOnce sync.Once
	renderChar *core.Characterization
)

func renderFixture(t *testing.T) *core.Characterization {
	t.Helper()
	renderOnce.Do(func() {
		cfg := capture.DefaultConfig(5, 0.01)
		cfg.Workload.Days = 2
		renderChar = core.Characterize(engine.New(engine.Config{Fleet: capture.FleetConfig{Node: cfg, Nodes: 1}}).Run(nil))
	})
	return renderChar
}

func TestRenderAllProducesEverySection(t *testing.T) {
	c := renderFixture(t)
	var buf bytes.Buffer
	if err := RenderAll(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"Figure 6", "Figure 7", "Figure 8", "Figure 9", "Figure 10",
		"Figure 11", "Appendix fits", "Headline measures",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing section %q", want)
		}
	}
	if len(out) < 4000 {
		t.Errorf("report suspiciously short: %d bytes", len(out))
	}
}

func TestRenderTable2Accounting(t *testing.T) {
	c := renderFixture(t)
	var buf bytes.Buffer
	if err := RenderTable2(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "rule 2") || !strings.Contains(buf.String(), "rule 5") {
		t.Error("table 2 rows missing")
	}
}

func TestRenderAnchors(t *testing.T) {
	c := renderFixture(t)
	var buf bytes.Buffer
	if err := RenderAnchors(&buf, c); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"passive peers", "interarrival < 100 s", "Fig 5a"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing anchor row %q", want)
		}
	}
}
