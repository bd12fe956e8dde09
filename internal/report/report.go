// Package report renders the analysis results as text: aligned tables,
// log-scale ASCII charts for the paper's CCDF/PMF figures, and CSV export
// for external plotting. Every renderer emits the same rows or series the
// corresponding paper artifact shows, so an `analyze -simulate` report
// can be read side by side with the paper.
package report

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Table writes an aligned text table. Cells are printed verbatim; column
// widths adapt to content.
func Table(w io.Writer, title string, headers []string, rows [][]string) error {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = displayWidth(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && displayWidth(cell) > widths[i] {
				widths[i] = displayWidth(cell)
			}
		}
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title)
		b.WriteString("\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if pad := widths[i] - displayWidth(c); pad > 0 {
				b.WriteString(strings.Repeat(" ", pad))
			}
		}
		b.WriteString("\n")
	}
	writeRow(headers)
	total := 0
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteString("\n")
	for _, row := range rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// displayWidth approximates the printed width of a cell: one column per
// rune (the tables only use narrow characters).
func displayWidth(s string) int {
	n := 0
	for range s {
		n++
	}
	return n
}

// Series is one named curve of a chart.
type Series struct {
	Name   string
	Marker byte
	X, Y   []float64
}

// Chart renders series on an ASCII grid with optional log axes — the
// shape-comparison stand-in for the paper's gnuplot figures.
type Chart struct {
	Title        string
	Width        int
	Height       int
	LogX, LogY   bool
	XLabel       string
	YLabel       string
	MinY         float64 // optional y floor (e.g. 0.01 for the paper's CCDFs)
	serieses     []Series
	defaultMarks string
}

// NewChart builds a chart with sane terminal defaults.
func NewChart(title string) *Chart {
	return &Chart{
		Title:        title,
		Width:        68,
		Height:       16,
		defaultMarks: "*+ox#@%&",
	}
}

// Add appends a series; a zero Marker picks the next default.
func (c *Chart) Add(s Series) {
	if s.Marker == 0 {
		s.Marker = c.defaultMarks[len(c.serieses)%len(c.defaultMarks)]
	}
	c.serieses = append(c.serieses, s)
}

func (c *Chart) tx(x float64) float64 {
	if c.LogX {
		return math.Log10(x)
	}
	return x
}

func (c *Chart) ty(y float64) float64 {
	if c.LogY {
		return math.Log10(y)
	}
	return y
}

// Render writes the chart.
func (c *Chart) Render(w io.Writer) error {
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, s := range c.serieses {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if c.LogX && x <= 0 || c.LogY && y <= 0 {
				continue
			}
			if c.MinY > 0 && y < c.MinY {
				continue
			}
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			tx, ty := c.tx(x), c.ty(y)
			minX, maxX = math.Min(minX, tx), math.Max(maxX, tx)
			minY, maxY = math.Min(minY, ty), math.Max(maxY, ty)
		}
	}
	if minX > maxX || minY > maxY {
		_, err := fmt.Fprintf(w, "%s\n  (no data)\n", c.Title)
		return err
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]byte, c.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", c.Width))
	}
	for _, s := range c.serieses {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if c.LogX && x <= 0 || c.LogY && y <= 0 || math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			if c.MinY > 0 && y < c.MinY {
				continue
			}
			cx := int((c.tx(x) - minX) / (maxX - minX) * float64(c.Width-1))
			cy := int((c.ty(y) - minY) / (maxY - minY) * float64(c.Height-1))
			row := c.Height - 1 - cy
			if row >= 0 && row < c.Height && cx >= 0 && cx < c.Width {
				grid[row][cx] = s.Marker
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", c.Title)
	axisFmt := func(v float64, log bool) string {
		if log {
			return fmt.Sprintf("%.3g", math.Pow(10, v))
		}
		return fmt.Sprintf("%.3g", v)
	}
	topLabel := axisFmt(maxY, c.LogY)
	botLabel := axisFmt(minY, c.LogY)
	labelW := len(topLabel)
	if len(botLabel) > labelW {
		labelW = len(botLabel)
	}
	for i, row := range grid {
		label := strings.Repeat(" ", labelW)
		if i == 0 {
			label = fmt.Sprintf("%*s", labelW, topLabel)
		}
		if i == c.Height-1 {
			label = fmt.Sprintf("%*s", labelW, botLabel)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", labelW), strings.Repeat("-", c.Width))
	fmt.Fprintf(&b, "%s  %-10s%s%10s\n", strings.Repeat(" ", labelW),
		axisFmt(minX, c.LogX), strings.Repeat(" ", max(0, c.Width-20)), axisFmt(maxX, c.LogX))
	var legend []string
	for _, s := range c.serieses {
		legend = append(legend, fmt.Sprintf("%c %s", s.Marker, s.Name))
	}
	if c.XLabel != "" || len(legend) > 0 {
		fmt.Fprintf(&b, "  x: %s   %s\n", c.XLabel, strings.Join(legend, "   "))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes series as long-format CSV: series,x,y.
func CSV(w io.Writer, serieses []Series) error {
	var b strings.Builder
	b.WriteString("series,x,y\n")
	for _, s := range serieses {
		for i := range s.X {
			fmt.Fprintf(&b, "%s,%g,%g\n", csvEscape(s.Name), s.X[i], s.Y[i])
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
