package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// SchemaVersion is the spec schema this package reads. Parse rejects any
// other value, so a future incompatible schema can bump it and old
// binaries fail loudly instead of misreading new specs.
const SchemaVersion = 1

// Spec is one declarative experiment description, straight from YAML.
// Scalar knobs under Sim are pointers so a spec states only what it pins;
// unset fields stay nil through Merge and take defaults only at Compile.
type Spec struct {
	// Version must equal SchemaVersion.
	Version int
	// Name labels the experiment (reports, perf lines, errors).
	Name string
	// Description is free-form documentation.
	Description string
	// Preset names a built-in preset this spec extends: the preset's spec
	// is the base and this file's fields overlay it.
	Preset string
	// Sim pins the base simulation shape.
	Sim SimSpec
	// Classes declares scenario client classes (workload overrides).
	Classes []ClassSpec
	// Events is the scenario timeline (churn transients).
	Events []EventSpec
	// Checks lists headline-metric assertions evaluated after a run.
	Checks []Check
}

// SimSpec mirrors the shared simulation flag block (internal/cliflags).
type SimSpec struct {
	Seed   *uint64
	Scale  *float64
	Days   *int
	Nodes  *int
	Online *bool
}

// ClassSpec declares one client class; it compiles 1:1 into
// workload.ClientClass.
type ClassSpec struct {
	Name          string
	Share         float64
	DurationScale float64
	QueryScale    float64
	Inject        []string
}

// EventSpec is one timeline entry. Exactly one event type must be set
// (today: churn).
type EventSpec struct {
	Churn *ChurnSpec
}

// ChurnSpec is a mass-disconnect/recovery transient; it compiles 1:1
// into workload.ChurnEvent.
type ChurnSpec struct {
	At       time.Duration
	Fraction float64
	Outage   time.Duration
	Recovery time.Duration
	Surge    float64
}

// Check is one headline-metric assertion: Metric's measured value must
// land in [Min, Max] (either bound optional).
type Check struct {
	Metric string
	Min    *float64
	Max    *float64
}

// Parse reads a spec document. Decoding is strict: unknown keys, type
// mismatches, out-of-range values and an unknown schema version are all
// errors, each naming the offending field and line. The sim range checks
// live in Compile, which specs, presets and flags all pass through.
func Parse(data []byte) (*Spec, error) {
	root, err := parseYAML(data)
	if err != nil {
		return nil, err
	}
	d := &decoder{}
	spec := d.spec(root)
	if d.err != nil {
		return nil, d.err
	}
	return spec, nil
}

// decoder walks the node tree, accumulating the first error with its
// dotted field path.
type decoder struct {
	err error
}

func (d *decoder) fail(line int, path, format string, args ...any) {
	if d.err == nil {
		d.err = errAt(line, "field %s: %s", path, fmt.Sprintf(format, args...))
	}
}

// mapping checks the node is a mapping and that every key is known.
func (d *decoder) mapping(n *node, path string, known ...string) bool {
	if d.err != nil {
		return false
	}
	if n.kind != mapNode {
		d.fail(n.line, path, "expected a mapping, got %s", n.kind)
		return false
	}
	for _, k := range n.keys {
		found := false
		for _, want := range known {
			if k == want {
				found = true
				break
			}
		}
		if !found {
			d.fail(n.children[k].line, joinPath(path, k), "unknown field (known: %s)", strings.Join(known, ", "))
			return false
		}
	}
	return true
}

func joinPath(base, key string) string {
	if base == "" {
		return key
	}
	return base + "." + key
}

func (d *decoder) scalar(n *node, path string) (string, int, bool) {
	if d.err != nil {
		return "", 0, false
	}
	if n.kind != scalarNode {
		d.fail(n.line, path, "expected a scalar, got %s", n.kind)
		return "", 0, false
	}
	s, err := unquote(n.line, n.scalar)
	if err != nil {
		d.fail(n.line, path, "%v", err)
		return "", 0, false
	}
	return s, n.line, true
}

func (d *decoder) str(n *node, path string) string {
	s, _, _ := d.scalar(n, path)
	return s
}

func (d *decoder) float(n *node, path string) float64 {
	s, line, ok := d.scalar(n, path)
	if !ok {
		return 0
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail(line, path, "cannot parse %q as a number", s)
		return 0
	}
	return v
}

func (d *decoder) integer(n *node, path string) int64 {
	s, line, ok := d.scalar(n, path)
	if !ok {
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.fail(line, path, "cannot parse %q as an integer", s)
		return 0
	}
	return v
}

func (d *decoder) boolean(n *node, path string) bool {
	s, line, ok := d.scalar(n, path)
	if !ok {
		return false
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	d.fail(line, path, "cannot parse %q as a bool (use true or false)", s)
	return false
}

// duration parses Go duration syntax extended with a leading day count:
// "36h", "90s", "10d", "10d12h".
func (d *decoder) duration(n *node, path string) time.Duration {
	s, line, ok := d.scalar(n, path)
	if !ok {
		return 0
	}
	v, err := parseDuration(s)
	if err != nil {
		d.fail(line, path, "cannot parse %q as a duration (like 90s, 36h, 10d, 10d12h)", s)
		return 0
	}
	return v
}

func parseDuration(s string) (time.Duration, error) {
	if i := strings.IndexByte(s, 'd'); i > 0 {
		days, err := strconv.Atoi(s[:i])
		if err != nil || days < 0 {
			return 0, fmt.Errorf("bad day count %q", s[:i])
		}
		rest := time.Duration(0)
		if i+1 < len(s) {
			var err error
			if rest, err = time.ParseDuration(s[i+1:]); err != nil {
				return 0, err
			}
		}
		return time.Duration(days)*24*time.Hour + rest, nil
	}
	return time.ParseDuration(s)
}

func (d *decoder) fraction(n *node, path string) float64 {
	v := d.float(n, path)
	if d.err == nil && (v < 0 || v > 1) {
		d.fail(n.line, path, "must be in [0, 1], got %v", v)
	}
	return v
}

func (d *decoder) spec(root *node) *Spec {
	if !d.mapping(root, "", "version", "name", "description", "preset", "sim", "classes", "events", "checks") {
		return nil
	}
	sp := &Spec{}
	versionSeen := false
	for _, k := range root.keys {
		n := root.children[k]
		switch k {
		case "version":
			versionSeen = true
			if v := d.integer(n, "version"); d.err == nil && v != SchemaVersion {
				d.fail(n.line, "version", "unsupported schema version %d (this build reads %d)", v, SchemaVersion)
			}
		case "name":
			sp.Name = d.str(n, "name")
		case "description":
			sp.Description = d.str(n, "description")
		case "preset":
			sp.Preset = d.str(n, "preset")
			if d.err == nil {
				if _, err := Preset(sp.Preset); err != nil {
					d.fail(n.line, "preset", "%v", err)
				}
			}
		case "sim":
			sp.Sim = d.sim(n, "sim")
		case "classes":
			sp.Classes = d.classes(n, "classes")
		case "events":
			sp.Events = d.events(n, "events")
		case "checks":
			sp.Checks = d.checks(n, "checks")
		}
	}
	if d.err == nil && !versionSeen {
		d.fail(root.line, "version", "missing (specs must declare \"version: %d\")", SchemaVersion)
	}
	return sp
}

func (d *decoder) sim(n *node, path string) SimSpec {
	var s SimSpec
	if !d.mapping(n, path, "seed", "scale", "days", "nodes", "online") {
		return s
	}
	for _, k := range n.keys {
		c := n.children[k]
		p := joinPath(path, k)
		switch k {
		case "seed":
			v := d.integer(c, p)
			if d.err == nil && v < 0 {
				d.fail(c.line, p, "must be ≥ 0")
			}
			u := uint64(v)
			s.Seed = &u
		case "scale":
			v := d.float(c, p)
			s.Scale = &v
		case "days":
			v := int(d.integer(c, p))
			s.Days = &v
		case "nodes":
			v := int(d.integer(c, p))
			s.Nodes = &v
		case "online":
			v := d.boolean(c, p)
			s.Online = &v
		}
	}
	return s
}

func (d *decoder) classes(n *node, path string) []ClassSpec {
	if d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.line, path, "expected a list, got %s", n.kind)
		return nil
	}
	out := make([]ClassSpec, 0, len(n.items))
	shareSum := 0.0
	for i, item := range n.items {
		p := fmt.Sprintf("%s[%d]", path, i)
		if !d.mapping(item, p, "name", "share", "duration_scale", "query_scale", "inject") {
			return nil
		}
		var cs ClassSpec
		for _, k := range item.keys {
			c := item.children[k]
			kp := joinPath(p, k)
			switch k {
			case "name":
				cs.Name = d.str(c, kp)
			case "share":
				cs.Share = d.fraction(c, kp)
			case "duration_scale":
				cs.DurationScale = d.float(c, kp)
				if d.err == nil && cs.DurationScale <= 0 {
					d.fail(c.line, kp, "must be > 0")
				}
			case "query_scale":
				cs.QueryScale = d.float(c, kp)
				if d.err == nil && cs.QueryScale <= 0 {
					d.fail(c.line, kp, "must be > 0")
				}
			case "inject":
				cs.Inject = d.stringList(c, kp)
			}
		}
		if d.err != nil {
			return nil
		}
		if cs.Name == "" {
			d.fail(item.line, joinPath(p, "name"), "missing (classes must be named)")
			return nil
		}
		if cs.Share <= 0 {
			d.fail(item.line, joinPath(p, "share"), "missing or zero (a class needs a positive arrival share)")
			return nil
		}
		shareSum += cs.Share
		out = append(out, cs)
	}
	if d.err == nil && shareSum > 1 {
		d.fail(n.line, path, "class shares sum to %.3f; must be ≤ 1 (the rest is the base class)", shareSum)
		return nil
	}
	return out
}

func (d *decoder) stringList(n *node, path string) []string {
	if d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.line, path, "expected a list of strings, got %s", n.kind)
		return nil
	}
	out := make([]string, 0, len(n.items))
	for i, item := range n.items {
		out = append(out, d.str(item, fmt.Sprintf("%s[%d]", path, i)))
	}
	return out
}

func (d *decoder) events(n *node, path string) []EventSpec {
	if d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.line, path, "expected a list, got %s", n.kind)
		return nil
	}
	out := make([]EventSpec, 0, len(n.items))
	for i, item := range n.items {
		p := fmt.Sprintf("%s[%d]", path, i)
		if !d.mapping(item, p, "churn") {
			return nil
		}
		if len(item.keys) != 1 {
			d.fail(item.line, p, "exactly one event type per entry (known: churn)")
			return nil
		}
		ch := d.churn(item.children["churn"], joinPath(p, "churn"))
		if d.err != nil {
			return nil
		}
		out = append(out, EventSpec{Churn: &ch})
	}
	return out
}

func (d *decoder) churn(n *node, path string) ChurnSpec {
	var cs ChurnSpec
	if !d.mapping(n, path, "at", "fraction", "outage", "recovery", "surge") {
		return cs
	}
	atSeen, fracSeen := false, false
	for _, k := range n.keys {
		c := n.children[k]
		p := joinPath(path, k)
		switch k {
		case "at":
			cs.At = d.duration(c, p)
			atSeen = true
		case "fraction":
			cs.Fraction = d.fraction(c, p)
			fracSeen = true
		case "outage":
			cs.Outage = d.duration(c, p)
		case "recovery":
			cs.Recovery = d.duration(c, p)
		case "surge":
			cs.Surge = d.float(c, p)
			if d.err == nil && cs.Surge < 1 {
				d.fail(c.line, p, "must be ≥ 1 (it is the peak recovery rate multiplier)")
			}
		}
	}
	if d.err == nil && !atSeen {
		d.fail(n.line, joinPath(path, "at"), "missing (when does the transient start?)")
	}
	if d.err == nil && !fracSeen {
		d.fail(n.line, joinPath(path, "fraction"), "missing (what share of the population disconnects?)")
	}
	return cs
}

func (d *decoder) checks(n *node, path string) []Check {
	if d.err != nil {
		return nil
	}
	if n.kind != seqNode {
		d.fail(n.line, path, "expected a list, got %s", n.kind)
		return nil
	}
	out := make([]Check, 0, len(n.items))
	for i, item := range n.items {
		p := fmt.Sprintf("%s[%d]", path, i)
		if !d.mapping(item, p, "metric", "min", "max") {
			return nil
		}
		var ck Check
		for _, k := range item.keys {
			c := item.children[k]
			kp := joinPath(p, k)
			switch k {
			case "metric":
				ck.Metric = d.str(c, kp)
				if d.err == nil && !knownMetric(ck.Metric) {
					d.fail(c.line, kp, "unknown metric %q (known: %s)", ck.Metric, strings.Join(MetricNames(), ", "))
				}
			case "min":
				v := d.float(c, kp)
				ck.Min = &v
			case "max":
				v := d.float(c, kp)
				ck.Max = &v
			}
		}
		if d.err != nil {
			return nil
		}
		if ck.Metric == "" {
			d.fail(item.line, joinPath(p, "metric"), "missing")
			return nil
		}
		if ck.Min == nil && ck.Max == nil {
			d.fail(item.line, p, "at least one of min/max is required")
			return nil
		}
		out = append(out, ck)
	}
	return out
}
