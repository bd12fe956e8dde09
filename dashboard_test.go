package p2pquery_test

import (
	"encoding/json"
	"net"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	p2pquery "repro"
	"repro/internal/ingest"
	"repro/internal/obs"
	"repro/internal/scenario"
)

// The Grafana dashboard and the metric registry are two halves of one
// contract: every family the pipeline registers should be on a chart,
// and every chart should query a family that actually exists. These
// tests pin both directions against a LIVE registry — built by running
// the pipeline and constructing the ingest endpoints, not from a
// hand-maintained name list — so a rename on either side fails `go
// test .` instead of silently blanking a panel.

// promIdents are the PromQL function/keyword/label identifiers the
// metric-name regex also matches inside panel exprs.
var promIdents = map[string]bool{
	"rate": true, "irate": true, "increase": true,
	"sum": true, "avg": true, "max": true, "min": true, "count": true,
	"by": true, "without": true, "on": true, "ignoring": true,
	"group_left": true, "group_right": true,
	"and": true, "or": true, "unless": true,
	"histogram_quantile": true,
	"le":                 true, "input": true, "metric": true,
}

var (
	identRe = regexp.MustCompile(`[a-zA-Z_][a-zA-Z0-9_]*`)
	rangeRe = regexp.MustCompile(`\[[0-9]+[smhdwy]\]`)
)

// exprMetrics extracts the candidate metric family names from one PromQL
// expression. Range selectors are stripped first so `[5m]` doesn't read
// as an identifier.
func exprMetrics(expr string) []string {
	var out []string
	for _, tok := range identRe.FindAllString(rangeRe.ReplaceAllString(expr, ""), -1) {
		if !promIdents[tok] {
			out = append(out, tok)
		}
	}
	return out
}

type dashPanel struct {
	Type    string `json:"type"`
	Title   string `json:"title"`
	Targets []struct {
		Expr string `json:"expr"`
	} `json:"targets"`
}

func dashboardPanels(t *testing.T) []dashPanel {
	t.Helper()
	raw, err := os.ReadFile("dashboards/p2pquery.json")
	if err != nil {
		t.Fatal(err)
	}
	var dash struct {
		Title  string      `json:"title"`
		Panels []dashPanel `json:"panels"`
	}
	if err := json.Unmarshal(raw, &dash); err != nil {
		t.Fatalf("dashboards/p2pquery.json is not valid JSON: %v", err)
	}
	if dash.Title == "" || len(dash.Panels) == 0 {
		t.Fatal("dashboard has no title or no panels")
	}
	for _, p := range dash.Panels {
		if len(p.Targets) == 0 {
			t.Errorf("panel %q has no targets", p.Title)
		}
		for _, tgt := range p.Targets {
			if strings.TrimSpace(tgt.Expr) == "" {
				t.Errorf("panel %q has an empty expr", p.Title)
			}
		}
	}
	return dash.Panels
}

// liveFamilies builds the union of metric families a real fleet run
// registers, by actually registering them: a tiny streaming+online
// pipeline run (engine, merge, online, scenario checks, process gauges)
// plus a constructed ingest collector and journal-shipping emitter
// (collector ingest_* families, emitter emitter_* families, the wire
// latency histograms).
func liveFamilies(t *testing.T) map[string]bool {
	t.Helper()

	pipeReg := obs.NewRegistry()
	obs.RegisterProcessMetrics(pipeReg)
	ob := &obs.Observer{Metrics: pipeReg}
	sim := p2pquery.DefaultSimulation(2004, 0.005)
	sim.Workload.Days = 1
	if _, err := p2pquery.Run(p2pquery.RunConfig{
		Sim: sim, Nodes: 2, Online: true, Obs: ob,
	}); err != nil {
		t.Fatal(err)
	}
	scenario.RecordChecks(ob, []scenario.CheckResult{{Metric: "conns", Value: 1, OK: true}})

	// The ingest endpoints register their families at construction; no
	// collector Run / emitter dial is needed to populate the registry.
	colReg := obs.NewRegistry()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := ingest.NewCollector(ingest.CollectorConfig{
		Inputs:   1,
		Listener: ln,
		Obs:      &obs.Observer{Metrics: colReg},
	}); err != nil {
		t.Fatal(err)
	}

	emReg := obs.NewRegistry()
	ingest.NewEmitter(ingest.EmitterConfig{
		Addr: ln.Addr().String(),
		Obs:  &obs.Observer{Metrics: emReg},
		Ship: ingest.NewJournalShip(),
	})

	fams := map[string]bool{}
	for _, reg := range []*obs.Registry{pipeReg, colReg, emReg} {
		for _, name := range reg.FamilyNames() {
			fams[name] = true
		}
	}
	return fams
}

// foldSeries maps a histogram series name (family_bucket/_sum/_count)
// back to its family when the family exists; other names pass through.
func foldSeries(name string, fams map[string]bool) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suf); ok && fams[base] {
			return base
		}
	}
	return name
}

// TestDashboardMetricsExist: every metric name a panel expr queries is a
// family the live registry exports (histogram _bucket/_sum/_count series
// fold back to their family).
func TestDashboardMetricsExist(t *testing.T) {
	fams := liveFamilies(t)
	for _, p := range dashboardPanels(t) {
		for _, tgt := range p.Targets {
			for _, name := range exprMetrics(tgt.Expr) {
				if !fams[foldSeries(name, fams)] {
					t.Errorf("panel %q queries %q, which no live registry exports\n  expr: %s", p.Title, name, tgt.Expr)
				}
			}
		}
	}
}

// TestDashboardCoversRegistry: every family the pipeline registers is
// charted by at least one panel — a new metric family must land on the
// dashboard in the same PR that adds it.
func TestDashboardCoversRegistry(t *testing.T) {
	fams := liveFamilies(t)
	charted := map[string]bool{}
	for _, p := range dashboardPanels(t) {
		for _, tgt := range p.Targets {
			for _, name := range exprMetrics(tgt.Expr) {
				charted[foldSeries(name, fams)] = true
			}
		}
	}
	var missing []string
	for name := range fams {
		if !charted[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		t.Errorf("registry family %q is on no dashboard panel", name)
	}
}
