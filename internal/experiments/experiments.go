// Package experiments regenerates every table and figure of the paper's
// evaluation: Figures 3–7, Tables 1–3, plus executable demonstrations of
// the Theorem 1 lower bound and the Theorem 4 predictive-order result. Each
// experiment returns a structured Result that renders as text (and CSV for
// the figure series); cmd/progressbench and the root bench suite drive
// them.
package experiments

import (
	"fmt"
	"strings"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
)

// Options scales the experiments. The defaults reproduce the paper's
// qualitative results in a few seconds; the paper's absolute sizes (10M-row
// synthetic relations, 1 GB TPC-H) only change constants, not shapes.
type Options struct {
	// SynthRows is N = |R1| = |R2| for the Section 5 synthetic experiments
	// (paper: 10,000,000).
	SynthRows int
	// TPCHScale is the TPC-H scale factor (paper: 1 GB ≈ SF 1).
	TPCHScale float64
	// SkyServerRows is the photoobj cardinality (paper: 1 GB edition).
	SkyServerRows int64
	// Zipf is the skew parameter (paper: 2).
	Zipf float64
	// Samples is the number of progress samples per run.
	Samples int64
	// Seed drives all generation.
	Seed int64
}

// Defaults returns the standard experiment scale.
func Defaults() Options {
	return Options{
		SynthRows:     30_000,
		TPCHScale:     0.01,
		SkyServerRows: 40_000,
		Zipf:          2,
		Samples:       60,
		Seed:          42,
	}
}

// Fast returns a reduced scale for tests.
func Fast() Options {
	o := Defaults()
	o.SynthRows = 4_000
	o.TPCHScale = 0.002
	o.SkyServerRows = 6_000
	o.Samples = 40
	return o
}

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier (fig3, tab1, thm4, ...).
	ID string
	// Title matches the paper's caption.
	Title string
	// Headers and Rows form the table (for figures, the sampled series).
	Headers []string
	Rows    [][]string
	// Notes carries summary metrics (mu, max/avg errors) and the paper's
	// reported values for comparison.
	Notes []string
	// Metrics exposes the headline numbers programmatically (benchmarks
	// report them; EXPERIMENTS.md records them).
	Metrics map[string]float64
}

// Render formats the result as aligned text.
func (r Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(r.Headers)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String()
}

// CSV renders the result rows as comma-separated values.
func (r Result) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Headers, ","))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Experiment pairs an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Options) Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"fig3", "dne estimator for TPC-H Query 1", Fig3},
		{"fig4", "pmax vs dne (INL join, skewed tuples first)", Fig4},
		{"fig5", "safe vs dne (worst-case order: skewed tuple last)", Fig5},
		{"tab1", "impact of scan-based plan (INL vs hash)", Tab1},
		{"fig6", "ratio error of pmax over TPC-H Q21 execution", Fig6},
		{"fig7", "safe vs dne in a favourable case", Fig7},
		{"tab2", "mu values for TPC-H", Tab2},
		{"tab3", "mu values for SkyServer", Tab3},
		{"pager", "I/O-bound estimation: cold vs warm buffer pool", Pager},
		{"thm1", "Theorem 1 lower-bound construction", Thm1},
		{"thm3", "Theorem 3: dne under random arrival orders", Thm3},
		{"thm4", "Theorem 4: predictive orders", Thm4},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared helpers ------------------------------------------------------------

func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// sampleEvery picks a sampling period giving roughly opts.Samples samples
// for a plan whose total is approximately estTotal.
func sampleEvery(estTotal int64, opts Options) int64 {
	if opts.Samples <= 0 {
		opts.Samples = 60
	}
	e := estTotal / opts.Samples
	if e < 1 {
		e = 1
	}
	return e
}

// runSeries executes the plan under an inline Monitor sampling every `every`
// calls — deterministic instants — and returns per-estimator series keyed by
// estimator name.
func runSeries(root exec.Operator, every int64, ests ...core.Estimator) (map[string][]core.Point, *core.Monitor, error) {
	m := core.NewMonitor(root, every, ests...)
	if _, err := m.Run(); err != nil {
		return nil, nil, err
	}
	out := make(map[string][]core.Point, len(ests))
	for i, e := range ests {
		out[e.Name()] = m.SeriesAt(i)
	}
	return out, m, nil
}

// seriesRows renders aligned (actual, est...) rows from parallel series.
func seriesRows(names []string, series map[string][]core.Point) [][]string {
	if len(names) == 0 {
		return nil
	}
	n := len(series[names[0]])
	rows := make([][]string, 0, n)
	for i := 0; i < n; i++ {
		row := make([]string, 0, len(names)+1)
		row = append(row, f3(series[names[0]][i].Actual))
		for _, name := range names {
			row = append(row, f3(series[name][i].Est))
		}
		rows = append(rows, row)
	}
	return rows
}
