package exec

import (
	"fmt"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// MergeJoin is an inner equi-join over two inputs sorted ascending on the
// join keys (typically Sort operators or ordered-index range scans). Both
// inputs stream: with sorted inputs the join itself is scan-based in the
// paper's sense (Section 5.4) — every input row is consumed exactly once.
//
// Rows with NULL join keys never match and are skipped.
type MergeJoin struct {
	base
	left, right  Operator
	lKeys, rKeys []expr.Expr
	// Linear marks key–foreign-key joins.
	Linear bool

	lRow   schema.Row
	lOk    bool
	rNext  schema.Row
	rOk    bool
	rBuf   []schema.Row // run of right rows sharing the current key
	runKey []sqlval.Value
	bufIdx int
	primed bool
	lIn    Batch // one-row child-pull scratch, per side
	rIn    Batch
}

// NewMergeJoin builds a merge join; inputs must be sorted ascending on their
// respective keys.
func NewMergeJoin(left, right Operator, lKeys, rKeys []expr.Expr) *MergeJoin {
	if len(lKeys) != len(rKeys) || len(lKeys) == 0 {
		panic("mergejoin: key arity mismatch or empty keys")
	}
	j := &MergeJoin{left: left, right: right, lKeys: lKeys, rKeys: rKeys}
	j.init(left.Schema().Concat(right.Schema()))
	return j
}

// Open implements Operator.
func (j *MergeJoin) Open(ctx *Ctx) error {
	j.reopen()
	j.lRow, j.rNext, j.rBuf, j.runKey = nil, nil, nil, nil
	j.lOk, j.rOk, j.primed = false, false, false
	j.bufIdx = 0
	if err := j.left.Open(ctx); err != nil {
		return err
	}
	return j.right.Open(ctx)
}

func evalKeys(keys []expr.Expr, row schema.Row) ([]sqlval.Value, bool) {
	out := make([]sqlval.Value, len(keys))
	for i, k := range keys {
		out[i] = k.Eval(row)
		if out[i].IsNull() {
			return out, false
		}
	}
	return out, true
}

func compareKeyVals(a, b []sqlval.Value) int {
	for i := range a {
		if c := sqlval.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func (j *MergeJoin) advanceLeft(ctx *Ctx) error {
	for {
		row, ok, err := pullOne(ctx, j.left, &j.lIn)
		if err != nil {
			return err
		}
		if !ok {
			j.lOk = false
			return nil
		}
		if _, nonNull := evalKeys(j.lKeys, row); nonNull {
			j.lRow, j.lOk = row, true
			return nil
		}
	}
}

func (j *MergeJoin) advanceRight(ctx *Ctx) error {
	for {
		row, ok, err := pullOne(ctx, j.right, &j.rIn)
		if err != nil {
			return err
		}
		if !ok {
			j.rOk = false
			return nil
		}
		if _, nonNull := evalKeys(j.rKeys, row); nonNull {
			j.rNext, j.rOk = row, true
			return nil
		}
	}
}

// NextBatch implements Operator. The two inputs advance at data-dependent
// rates, so chunked lookahead would hold counted-but-unmerged rows across
// quiesce points; MergeJoin pulls both children one row at a time at any
// want, batching only its output. Sorts beneath it still drain their own
// children in bulk during Open.
func (j *MergeJoin) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return j.rowWise(ctx, b, want, j.next)
}

// next produces the join's next row: one GetNext of its output.
func (j *MergeJoin) next(ctx *Ctx) (schema.Row, bool, error) {
	if !j.primed {
		j.primed = true
		if err := j.advanceLeft(ctx); err != nil {
			return nil, false, err
		}
		if err := j.advanceRight(ctx); err != nil {
			return nil, false, err
		}
	}
	for {
		// Emit pending pairs of the current left row with the buffered run.
		if j.bufIdx < len(j.rBuf) {
			r := j.rBuf[j.bufIdx]
			j.bufIdx++
			return schema.ConcatRows(j.lRow, r), true, nil
		}
		if len(j.rBuf) > 0 {
			// Current left row exhausted the run: advance left and reuse the
			// run when the key repeats.
			if err := j.advanceLeft(ctx); err != nil {
				return nil, false, err
			}
			if j.lOk {
				lk, _ := evalKeys(j.lKeys, j.lRow)
				if compareKeyVals(lk, j.runKey) == 0 {
					j.bufIdx = 0
					continue
				}
			}
			j.rBuf, j.runKey = nil, nil
			continue
		}
		if !j.lOk || !j.rOk {
			return nil, false, nil
		}
		lk, _ := evalKeys(j.lKeys, j.lRow)
		rk, _ := evalKeys(j.rKeys, j.rNext)
		switch c := compareKeyVals(lk, rk); {
		case c < 0:
			if err := j.advanceLeft(ctx); err != nil {
				return nil, false, err
			}
		case c > 0:
			if err := j.advanceRight(ctx); err != nil {
				return nil, false, err
			}
		default:
			// Buffer the full right-side run for this key.
			j.runKey = rk
			j.rBuf = append(j.rBuf[:0], j.rNext)
			for {
				if err := j.advanceRight(ctx); err != nil {
					return nil, false, err
				}
				if !j.rOk {
					break
				}
				nk, _ := evalKeys(j.rKeys, j.rNext)
				if compareKeyVals(nk, j.runKey) != 0 {
					break
				}
				j.rBuf = append(j.rBuf, j.rNext)
			}
			j.bufIdx = 0
		}
	}
}

// Close implements Operator.
func (j *MergeJoin) Close() error {
	err1 := j.left.Close()
	err2 := j.right.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// Children implements Operator.
func (j *MergeJoin) Children() []Operator { return []Operator{j.left, j.right} }

// Name implements Operator.
func (j *MergeJoin) Name() string { return fmt.Sprintf("MergeJoin[inner%s]", linTag(j.Linear)) }

// FinalBounds implements Operator.
func (j *MergeJoin) FinalBounds(ch []CardBounds) CardBounds {
	ub := SatMul(ch[0].UB, ch[1].UB)
	if j.Linear {
		ub = minI64(ub, maxI64(ch[0].UB, ch[1].UB))
	}
	return CardBounds{LB: 0, UB: ub}
}

// StreamChildren implements Operator: both inputs stream concurrently, the
// multi-driver pipeline case the paper notes in Section 4.1's footnote.
func (j *MergeJoin) StreamChildren() []int { return []int{0, 1} }

// EarlyStopChildren implements EarlyStopper: once either input exhausts,
// the join stops pulling the other, which may therefore end the query
// short of EOF with rows still unread.
func (j *MergeJoin) EarlyStopChildren() []int { return []int{0, 1} }

// BlockingChildren implements Operator.
func (j *MergeJoin) BlockingChildren() []int { return nil }
