// Package stats implements relation statistics in the sense of the paper
// (Section 2.3): a statistics generator maps a relation to a compact, lossy
// synopsis. Equi-depth single-column histograms are the instance built
// here.
//
// The statistics serve three roles in progress estimation:
//
//   - Selectivity estimates feed driver-node totals for the dne estimator.
//   - Histogram bucket boundaries yield lower/upper bounds for range scans
//     (Section 5.1, footnote 2).
//   - Degree sequences yield pessimistic join upper bounds: for a join
//     R ⋈ S on a key, the output is at most
//     min(l1(R)·linf(S), linf(R)·l1(S), l2(R)·l2(S)) where lp is the
//     p-norm of the relation's per-key degree vector. These bounds are
//     provably sound regardless of correlation or skew — the LpBound line
//     of work — and feed the plan's tightened upper bound UBTight, which
//     the lp-safe estimator divides through.
//
// # How the histograms are built
//
// HistogramGenerator.Generate makes one pass over the relation's rows, row
// by row, and pulls each column's non-NULL values into a typed key vector:
// int64 for Int, Date and Bool, float64 for Float, string for String. The
// vectors are sorted with the Go types' own order, which is sqlval.Compare's
// order within one kind (NaN first among floats), so no comparison goes
// through Compare. A column that turns out to hold values of two kinds — an
// Int inserted into a DOUBLE column, say — keeps a []sqlval.Value vector
// and is sorted by Compare instead.
//
// Every column is then cut by one bucket-and-run cutter, generic over the
// key type; cutValues is its []sqlval.Value instantiation. A single
// walk over the sorted keys takes each equal-value run as one key's degree
// and closes a bucket only between runs. Columns are sorted and cut on
// GOMAXPROCS goroutines. Each column's histogram depends on that column's
// values alone, and each goroutine writes only the histograms of the
// columns it took, so the synopsis does not depend on how the goroutines
// are scheduled.
//
// # Staleness model
//
// Statistics are snapshots: a synopsis taken at generation time does not
// track subsequent mutation. The evalmatrix harness exploits this to build
// its fresh/stale/absent stats-health axis — stale cells generate
// statistics, then mutate the data underneath them. Degree-norm bounds
// computed from live relations (as the planner does at bind time) remain
// exact for the data as bound.
package stats
