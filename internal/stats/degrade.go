package stats

// Statistics health degradation. The paper assumes the statistics a progress
// estimator consults may be arbitrarily wrong (Section 7: the estimators must
// tolerate the errors plan-time models make); the evaluation matrix makes
// that a controlled axis. A synopsis is degraded in one of two ways:
//
//   - Stale: the histograms still describe the relation as last analyzed,
//     but some rows have since been mutated in place. The synopsis is kept
//     and stamped with the mutation count; EstimateRange widens its hard
//     bounds by that budget, so they stay sound for the drifted data.
//   - Absent: the histograms are dropped entirely. Consumers that probe for
//     a histogram (plan.Builder.RangeScan) find none and fall back to
//     catalog row counts — the estimate degrades to the full cardinality and
//     the static range bounds to [0, N].

// Health classifies the freshness of a table's statistics in the evaluation
// matrix.
type Health string

// The three statistics-health regimes of the accuracy matrix.
const (
	Fresh  Health = "fresh"
	Stale  Health = "stale"
	Absent Health = "absent"
)

// Healths lists the regimes in matrix order.
func Healths() []Health { return []Health{Fresh, Stale, Absent} }

// Degrade returns a copy of ts degraded to the given health. For Stale,
// changed is the number of rows mutated since the synopsis was built: every
// histogram's staleness budget grows by it (a row mutation only perturbs the
// mutated columns, but charging all columns is uniformly sound — bounds only
// widen). For Fresh and Absent, changed is ignored. The input synopsis is
// never modified; bucket slices are shared with the copy (they are
// read-only).
func Degrade(ts *TableStats, h Health, changed int64) *TableStats {
	if ts == nil {
		return nil
	}
	out := &TableStats{
		Table:    ts.Table,
		RowCount: ts.RowCount,
	}
	switch h {
	case Stale:
		out.Histograms = make([]*Histogram, len(ts.Histograms))
		for i, hg := range ts.Histograms {
			if hg == nil {
				continue
			}
			cp := *hg
			cp.Stale = hg.Stale + changed
			out.Histograms[i] = &cp
		}
	case Absent:
		out.Histograms = nil
	default:
		out.Histograms = ts.Histograms
	}
	return out
}
