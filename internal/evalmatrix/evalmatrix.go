package evalmatrix

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/stats"
)

// Options scales the matrix. All fields are seeds or sizes — nothing
// wall-clock dependent.
type Options struct {
	// Seed drives every generator and mutation in the matrix.
	Seed int64
	// TPCHScale is the TPC-H scale factor per zipf variant.
	TPCHScale float64
	// SkyRows is the SkyServer photoobj cardinality.
	SkyRows int64
	// AdvKeys and AdvRows size the adversarial skew pair (|R1| keys,
	// |R2| rows zipf(2)-distributed over them).
	AdvKeys int
	AdvRows int64
	// Samples is the target number of progress samples per cell.
	Samples int64
	// Perturb multiplies the named estimators' outputs by the given factor
	// (clamped to [0, 1]). It exists for the gate's negative self-test: a
	// deliberately broken estimator must fail the accuracy gate.
	Perturb map[string]float64
}

// DefaultOptions is the scale the checked-in BENCH_ACC.json artifact is
// generated at.
func DefaultOptions() Options {
	return Options{
		Seed:      42,
		TPCHScale: 0.002,
		SkyRows:   8_000,
		AdvKeys:   2_000,
		AdvRows:   8_000,
		Samples:   40,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.TPCHScale <= 0 {
		o.TPCHScale = d.TPCHScale
	}
	if o.SkyRows <= 0 {
		o.SkyRows = d.SkyRows
	}
	if o.AdvKeys <= 0 {
		o.AdvKeys = d.AdvKeys
	}
	if o.AdvRows <= 0 {
		o.AdvRows = d.AdvRows
	}
	if o.Samples <= 0 {
		o.Samples = d.Samples
	}
	return o
}

// RatioErrCap replaces an infinite ratio error (an estimate of exactly zero
// while actual progress is nonzero, or vice versa) in the artifact: JSON
// cannot carry +Inf, and any capped value fails a gate comparison against a
// finite baseline just as +Inf would.
const RatioErrCap = 1e9

// ConvergenceNever is the convergence value of a cell whose ratio error
// never settles below ConvergenceRatio (progress fractions live in [0, 1],
// so 2 is unreachable by a converging run).
const ConvergenceNever = 2.0

// ConvergenceRatio is the ratio-error threshold defining convergence: the
// reported convergence point is the actual-progress fraction of the first
// sample after which every sample's ratio error stays below it.
const ConvergenceRatio = 1.1

// Row is one artifact row: one matrix cell × one estimator.
type Row struct {
	Dataset   string `json:"dataset"`
	Stats     string `json:"stats"`
	Family    string `json:"family"`
	Estimator string `json:"estimator"`
	// Mu is the paper's mu = total(Q) / scanned leaf cardinality for the
	// cell's execution (identical across the cell's estimator rows).
	Mu float64 `json:"mu"`
	// MaxRatioErr is the worst max(a/e, e/a) over the cell's samples,
	// capped at RatioErrCap.
	MaxRatioErr float64 `json:"max_ratio_err"`
	// MaxAbsErr is the worst |estimate - actual| over the samples (the
	// paper's Table 1 measure).
	MaxAbsErr float64 `json:"max_abs_err"`
	// L1Err is the mean |estimate - actual| over the samples.
	L1Err float64 `json:"l1_err"`
	// Convergence is the actual-progress fraction after which the ratio
	// error stays below ConvergenceRatio (ConvergenceNever if it never does).
	Convergence float64 `json:"convergence"`
	// Samples is the number of recorded observations.
	Samples int `json:"samples"`
	// LBRegressions counts samples whose LB dropped below the previous
	// sample's (must be 0: lower bounds only tighten upward).
	LBRegressions int `json:"lb_regressions"`
	// UBRegressions counts samples whose UB rose above the previous
	// sample's (must be 0: upper bounds only tighten downward).
	UBRegressions int `json:"ub_regressions"`
	// BoundMisses counts samples whose hard interval failed to bracket the
	// run — Curr > UB, Curr > LB, LB > total, or UB < total (must be 0).
	BoundMisses int `json:"bound_misses"`
	// UBTightRegressions counts samples whose pessimistic UBTight rose above
	// the previous sample's (must be 0: like UB, it only tightens downward).
	UBTightRegressions int `json:"ubtight_regressions"`
	// TightBoundMisses counts samples where the pessimistic bound was
	// unsound — Curr > UBTight, UBTight < total, or UBTight outside [LB, UB]
	// (must be 0; this is the degree-norm join bound's soundness gate).
	TightBoundMisses int `json:"tight_bound_misses"`
	// SkewedStale marks the paper's Section 5 regime: a skewed dataset's
	// stale join cell, where the acceptance ordering safe <= dne must hold.
	SkewedStale bool `json:"skewed_stale"`
}

// CellID identifies the row's matrix cell (every cell has one row per
// estimator).
func (r Row) CellID() string {
	return r.Dataset + "/" + r.Stats + "/" + r.Family
}

// Key identifies the row uniquely within an artifact.
func (r Row) Key() string { return r.CellID() + "/" + r.Estimator }

// perturbed wraps an estimator with a multiplicative output error, keeping
// the inner name so series lookups and artifact rows stay comparable.
type perturbed struct {
	inner  core.Estimator
	factor float64
}

func (p perturbed) Name() string { return p.inner.Name() }

func (p perturbed) Estimate(s *core.State) float64 {
	v := p.inner.Estimate(s) * p.factor
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// estimators returns the matrix's estimator set, with any configured
// perturbations applied. The set is rebuilt per cell: the combiner is
// stateful (its error model must start empty for every run).
func estimators(opts Options) []core.Estimator {
	base := []core.Estimator{core.Dne{}, core.Pmax{}, core.Safe{}, core.LpSafe{}, &core.Combiner{}}
	if len(opts.Perturb) == 0 {
		return base
	}
	out := make([]core.Estimator, len(base))
	for i, e := range base {
		if f, ok := opts.Perturb[e.Name()]; ok {
			out[i] = perturbed{inner: e, factor: f}
		} else {
			out[i] = e
		}
	}
	return out
}

// Run executes the full matrix and then the paper cells (RunPaper), and
// returns one Row per cell per estimator, in deterministic sweep order
// (dataset, health, family, estimator; then paper cell order).
func Run(opts Options) ([]Row, error) {
	rows, err := runGrid(opts)
	if err != nil {
		return nil, err
	}
	paper, err := RunPaper(opts)
	if err != nil {
		return nil, err
	}
	for _, sc := range paper {
		rows = append(rows, sc.Rows...)
	}
	return rows, nil
}

// runGrid executes the dataset x health x family grid.
func runGrid(opts Options) ([]Row, error) {
	opts = opts.withDefaults()
	var rows []Row
	for _, ds := range datasets() {
		for _, health := range stats.Healths() {
			sc, err := buildScenario(ds, health, opts)
			if err != nil {
				return nil, err
			}
			for _, fam := range sc.families {
				cell, err := runCell(ds, health, fam, opts)
				if err != nil {
					sc.cleanup()
					return nil, fmt.Errorf("evalmatrix: %s/%s/%s: %w", ds.name, health, fam.name, err)
				}
				rows = append(rows, cell.Rows...)
			}
			sc.cleanup()
		}
	}
	return rows, nil
}

// runCell measures one (dataset, health, family) cell: a dry run sizes the
// sampling period from the cell's exact total, then a fresh plan executes
// under the monitor's credit trigger with all estimators sampled.
func runCell(ds dataset, health stats.Health, fam familySpec, opts Options) (Scored, error) {
	dry, err := fam.build()
	if err != nil {
		return Scored{}, err
	}
	// Parallel operators run their workers in lockstep: the interleaving,
	// and so every sampled instant, must be the same run after run.
	exec.Lockstep(dry)
	dctx := exec.NewCtx()
	if _, err := exec.RunBatch(dctx, dry); err != nil {
		return Scored{}, err
	}
	total := dctx.Calls()
	every := total / opts.Samples
	if every < 1 {
		every = 1
	}

	root, err := fam.build()
	if err != nil {
		return Scored{}, err
	}
	exec.Lockstep(root)
	ests := estimators(opts)
	m := core.NewMonitor(root, every, ests...)
	if _, err := m.Run(); err != nil {
		return Scored{}, err
	}

	// The hard-bound counts come from the one series checker. Its estimator
	// rules are not published: -perturb breaks estimators on purpose.
	s := core.SeriesOf(fam.name, &m.SampleSet)
	lbReg, ubReg := s.Count(core.RuleLBMonotone), s.Count(core.RuleUBMonotone)
	misses := s.Count(core.RuleCurrUB, core.RuleCurrLB, core.RuleLBTotal, core.RuleUBTotal)
	tReg := s.Count(core.RuleUBTightMonotone)
	tMiss := s.Count(core.RuleCurrUBTight, core.RuleUBTightTotal, core.RuleUBTightRange)
	var out Scored
	for i, e := range ests {
		pts := m.SeriesAt(i)
		maxErr := core.MaxRatioError(pts)
		if maxErr > RatioErrCap {
			maxErr = RatioErrCap
		}
		out.Series = append(out.Series, pts)
		out.Rows = append(out.Rows, Row{
			Dataset:            ds.name,
			Stats:              string(health),
			Family:             fam.name,
			Estimator:          e.Name(),
			Mu:                 s.Mu,
			MaxRatioErr:        maxErr,
			MaxAbsErr:          core.MaxAbsError(pts),
			L1Err:              core.AvgAbsError(pts),
			Convergence:        convergence(pts),
			Samples:            len(m.Samples),
			LBRegressions:      lbReg,
			UBRegressions:      ubReg,
			BoundMisses:        misses,
			UBTightRegressions: tReg,
			TightBoundMisses:   tMiss,
			SkewedStale:        ds.skewed && health == stats.Stale && fam.name == "join",
		})
	}
	return out, nil
}

// convergence returns the actual-progress fraction of the first sample
// after which every sample's ratio error stays below ConvergenceRatio, or
// ConvergenceNever. Defined purely over the sampled series — no clocks.
func convergence(pts []core.Point) float64 {
	conv := ConvergenceNever
	for i := len(pts) - 1; i >= 0; i-- {
		if core.RatioError(pts[i].Actual, pts[i].Est) >= ConvergenceRatio {
			break
		}
		conv = pts[i].Actual
	}
	return conv
}

// artifact is the BENCH_ACC.json layout. It carries no date and no host
// facts: every field is deterministic, and the flake audit diffs two runs
// byte for byte.
type artifact struct {
	Suite string `json:"suite"`
	Cells int    `json:"cells"`
	Rows  []Row  `json:"rows"`
}

// EncodeJSON renders rows as the canonical artifact bytes.
func EncodeJSON(rows []Row) ([]byte, error) {
	cells := map[string]bool{}
	for _, r := range rows {
		cells[r.CellID()] = true
	}
	buf, err := json.MarshalIndent(artifact{Suite: "acc", Cells: len(cells), Rows: rows}, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}

// WriteFile writes the artifact to path.
func WriteFile(path string, rows []Row) error {
	buf, err := EncodeJSON(rows)
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ReadFile loads an artifact's rows.
func ReadFile(path string) ([]Row, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a.Rows, nil
}

// Result is one rendered table: the matrix's per-cell summary (Table) or one
// paper artifact (Artifact.Report).
type Result struct {
	// ID names the table (acc, fig3, tab1, ...).
	ID string
	// Title is its caption.
	Title string
	// Headers and Rows form the table (for a figure, the sampled series).
	Headers []string
	Rows    [][]string
	// Notes carries the headline numbers and the paper's reported values.
	Notes []string
	// Metrics exposes the numbers programmatically (BenchmarkPaper reports
	// them).
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

// Table folds the per-estimator rows into one rendered line per matrix cell
// (max ratio error per estimator, safe's convergence point).
func Table(rows []Row) Result {
	res := Result{
		ID:      "acc",
		Title:   "estimator accuracy matrix (max ratio error per cell)",
		Headers: []string{"dataset", "stats", "family", "mu", "dne", "pmax", "safe", "lp-safe", "combiner", "conv(safe)", "flag"},
		Metrics: map[string]float64{},
	}
	type cell struct {
		first Row
		errs  map[string]float64
		conv  map[string]float64
	}
	order := []string{}
	cells := map[string]*cell{}
	flagged := 0
	for _, r := range rows {
		id := r.CellID()
		c, ok := cells[id]
		if !ok {
			c = &cell{first: r, errs: map[string]float64{}, conv: map[string]float64{}}
			cells[id] = c
			order = append(order, id)
		}
		c.errs[r.Estimator] = r.MaxRatioErr
		c.conv[r.Estimator] = r.Convergence
		res.Metrics[r.Key()] = r.MaxRatioErr
	}
	for _, id := range order {
		c := cells[id]
		flag := ""
		if c.first.SkewedStale {
			flag = "skewed-stale"
			flagged++
		}
		res.Rows = append(res.Rows, []string{
			c.first.Dataset, c.first.Stats, c.first.Family,
			fmt.Sprintf("%.3f", c.first.Mu),
			fmt.Sprintf("%.3f", c.errs["dne"]),
			fmt.Sprintf("%.3f", c.errs["pmax"]),
			fmt.Sprintf("%.3f", c.errs["safe"]),
			fmt.Sprintf("%.3f", c.errs["lp-safe"]),
			fmt.Sprintf("%.3f", c.errs["combiner"]),
			fmt.Sprintf("%.3f", c.conv["safe"]),
			flag,
		})
	}
	res.Notes = append(res.Notes,
		fmt.Sprintf("%d cells x %d estimator rows; %d skewed-stale cells gated on safe <= dne and combiner <= min(dne, safe)",
			len(order), len(rows), flagged))
	return res
}
