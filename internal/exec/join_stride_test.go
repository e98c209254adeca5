package exec

import (
	"errors"
	"fmt"
	"testing"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/ledger"
	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// wideValues is a Values leaf that ignores want: NextBatch hands up every row
// in one chunk, the way a fan-out join under a probe does, and then cancels
// the run when cancel is set.
type wideValues struct {
	*Values
	cancel bool
	sent   bool
}

func (w *wideValues) Open(ctx *Ctx) error {
	w.sent = false
	return w.Values.Open(ctx)
}

func (w *wideValues) NextBatch(ctx *Ctx, b *Batch, _ int) error {
	b.Reset()
	if w.sent {
		w.markDone()
		return nil
	}
	w.sent = true
	b.Rows = append(b.Rows, w.RowsData...)
	err := ctx.credit(w.slot, 0, b.Len())
	if w.cancel {
		ctx.Cancel()
	}
	return err
}

const (
	strideBatch  = 8                // Ctx.BatchSize of these tests
	strideFanout = 3                // inner rows per matching probe key
	strideProbe  = 16 * strideBatch // probe rows, all in one chunk when wide
)

// strideJoins builds, per call, a fresh hash join and a fresh index join of
// the same probe rows against the same inner relation: probe key k matches
// strideFanout inner rows, except every fifth key when misses is set.
func strideJoins(mode JoinMode, wide, cancel, misses bool) map[string]Operator {
	inner := relOf("s", []string{"b", "y"}, nil)
	probeSch := schema.New(schema.Column{Table: "r", Name: "a", Type: sqlval.KindInt})
	var probeRows []schema.Row
	for k := int64(0); k < strideProbe; k++ {
		probeRows = append(probeRows, schema.Row{sqlval.Int(k)})
		if misses && k%5 == 0 {
			continue
		}
		for f := int64(0); f < strideFanout; f++ {
			inner.Append(schema.Row{sqlval.Int(k), sqlval.Int(100*k + f)})
		}
	}
	probe := func() Operator {
		v := NewValues(probeSch, probeRows)
		if wide {
			return &wideValues{Values: v, cancel: cancel}
		}
		return v
	}
	hp, ip := probe(), probe()
	build := NewScan(inner)
	return map[string]Operator{
		"hash": NewHashJoin(build, hp,
			[]expr.Expr{col(build, "s", "b")}, []expr.Expr{col(hp, "r", "a")}, mode),
		"inl": NewINLJoin(ip, inner, 0, col(ip, "r", "a"), mode),
	}
}

// TestJoinProbeCancelWithinOneStride: a probe chunk of 16 batches arrives with
// the run already canceled. The join must stop after the first stride of one
// batch of input — at most batch × fan-out rows built — instead of
// materialising the whole chunk's output before it looks.
func TestJoinProbeCancelWithinOneStride(t *testing.T) {
	for name, j := range strideJoins(InnerJoin, true, true, false) {
		ctx := NewCtx()
		EnsureLedger(j)
		if err := j.Open(ctx); err != nil {
			t.Fatalf("%s: open: %v", name, err)
		}
		var b Batch
		err := j.NextBatch(ctx, &b, strideBatch)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%s: err = %v, want ErrCanceled", name, err)
		}
		if b.Len() > strideBatch*strideFanout {
			t.Fatalf("%s: %d rows built after the cancel, want at most one stride's %d (whole chunk: %d)",
				name, b.Len(), strideBatch*strideFanout, strideProbe*strideFanout)
		}
		j.Close()
	}
}

// TestJoinProbeStrideEquivalence: the same probe rows arriving as one chunk of
// 16 batches (probed in 16 strides) and batch by batch (one stride each) give
// the same output sequence, the same Curr and the same per-node ledger, in
// every join mode.
func TestJoinProbeStrideEquivalence(t *testing.T) {
	run := func(j Operator) ([]string, int64, []ledger.Snapshot) {
		t.Helper()
		ctx := NewCtx()
		ctx.BatchSize = strideBatch
		rows, err := RunBatch(ctx, j)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprint(r)
		}
		return out, ctx.Calls(), j.progressBase().led.SnapshotAll(nil)
	}
	for _, mode := range []JoinMode{InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin} {
		wide, narrow := strideJoins(mode, true, false, true), strideJoins(mode, false, false, true)
		for name := range wide {
			label := fmt.Sprintf("%s/%s", name, mode)
			gotRows, gotCalls, gotLed := run(wide[name])
			wantRows, wantCalls, wantLed := run(narrow[name])
			if len(wantRows) == 0 {
				t.Fatalf("%s: empty reference output", label)
			}
			if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
				t.Fatalf("%s: output differs\n strided:   %v\n unstrided: %v", label, gotRows, wantRows)
			}
			if gotCalls != wantCalls {
				t.Fatalf("%s: Curr %d strided, %d unstrided", label, gotCalls, wantCalls)
			}
			if fmt.Sprint(gotLed) != fmt.Sprint(wantLed) {
				t.Fatalf("%s: ledger differs\n strided:   %+v\n unstrided: %+v", label, gotLed, wantLed)
			}
		}
	}
}
