// Package evalmatrix is the estimator accuracy matrix: the paper's central
// question — when can a progress estimator be trusted? — turned into a
// standing instrument. It sweeps
//
//	{TPC-H zipf 0/1/2, SkyServer, adversarial skew}   5 datasets
//	× {fresh, stale, absent statistics}               3 stats healths
//	× {scan, join, mmjoin, agg, hjoin, paged}         6 plan families
//
// for 90 cells, runs every registered matrix estimator (dne, pmax, safe,
// lp-safe, combiner) in each cell on the executor's credit trigger
// (core.Monitor.Run), and records each estimator's error trajectory: max
// ratio error, mean L1 error, time-to-convergence, plus hard-bound soundness
// counters for both the classic [LB, UB] interval and the pessimistic
// degree-norm UBTight. cmd/benchdump emits the matrix as
// BENCH_ACC.json and cmd/benchgate fails CI when a cell regresses.
//
// The same harness scores the paper's evaluation (paper.go): Figures 3-7,
// Tables 1-3 and the cold-vs-warm pager runs are 38 paper cells on fixed
// data, appended to the grid's rows as dataset "paper" with the cell
// name as family. PaperClaims states the paper's qualitative claims over
// those rows, and cmd/progressbench renders each artifact from them.
//
// The mmjoin family is the degree-norm showcase: a self-join over a
// moderately skewed key whose only classic (FK-free) upper bound is the
// cross product, while the l1/l2/l-infinity degree norms bound the true
// fan-out product. It exists so that lp-safe has cells where it is strictly
// tighter than safe — a property the accuracy gate requires of at least
// one cell. The hjoin family is its opposite: the fact table probing its
// dimension's hash table on the foreign key, the matrix's only FK-linear
// hash join.
//
// # Invariants the matrix itself asserts
//
//   - Determinism: all generation and mutation is seeded and every plan
//     runs on one goroutine, so the credit trigger fires at the same
//     instants. Two runs produce byte-identical artifacts
//     (TestMatrixDeterministic, and CI proves it on its own machine before
//     gating).
//   - Soundness: zero violations of LB <= total <= UBTight <= UB and zero
//     bound regressions (LB falling, UB or UBTight rising) in any cell.
//   - Ordering: safe <= dne and combiner <= min(dne, safe) by max ratio
//     error on every skewed-stale join cell.
//
// The convergence metric is defined over progress fractions, never wall
// clock, so it is stable across machines.
package evalmatrix
