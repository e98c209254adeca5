package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sqlprogress/internal/schema"
)

// This file holds the one parallel operator, the morsel-driven ParallelScan,
// and its worker→reader batch transport with the transport's two schedules.
//
// A ParallelScan's slot has one writer, its reader: a node's work is the
// GetNext calls it answers, so the reader credits the rows it hands its
// parent, and rows a worker read that the parent never pulls are never
// counted. Workers touch no ledger slot.

// gather is ParallelScan's worker→reader transport. The scan describes one
// worker as a resumable step; gather schedules the steps and hands their
// output to the reader:
//
//   - concurrently (the default): one goroutine per worker loops its step,
//     shipping whole batches to the reader over a channel and recycling
//     spent ones through a free list (zero steady-state allocation, no row
//     copying), with first-error-wins failure and quit-based teardown;
//   - in lockstep (see Lockstep): no goroutines — the reader runs the steps
//     itself, one at a time, round-robin over the unfinished workers. Same
//     rows, same counts, same ledger slots, but a fixed interleaving, so a
//     sampler observes identical instants run after run.
//
// The reader side is next over the current batch, which credits what it
// hands out.
type gather struct {
	lockstep bool

	// Concurrent mode.
	ch       chan *Batch
	free     chan *Batch
	quit     chan struct{}
	wg       sync.WaitGroup
	live     atomic.Int32 // workers still running; the last one closes ch
	errMu    sync.Mutex
	firstErr error

	// Lockstep mode: steps[w] is nil once worker w is done.
	steps []workerStep
	idx   int
	ls    Batch

	// Reader side: the batch being handed out and the next unread row.
	buf *Batch
	pos int
}

// workerStep is one worker's resumable unit of work: it appends the worker's
// next rows for the reader to out (possibly none) and reports where that
// leaves the worker. Steps of different workers run concurrently unless the
// gather is in lockstep; one worker's steps never overlap.
type workerStep func(out *Batch) (turn, error)

// turn is a step's report. Only the lockstep schedule tells turnOver from
// turnHeld; a concurrent worker just steps again after either.
type turn int

const (
	turnOver turn = iota // more to do; in lockstep the next worker steps next
	turnHeld             // more to do, mid-unit; in lockstep this worker steps again
	turnLast             // the worker is finished
)

// Lockstep switches every parallel scan under root to the reader-driven
// deterministic schedule (see gather). Call it on a built plan before Open;
// the equivalence and torn-read checkers do, so that a parallel plan's
// instants are the same run after run.
func Lockstep(root Operator) {
	Walk(root, func(op Operator) {
		if g, ok := op.(interface{ transport() *gather }); ok {
			g.transport().lockstep = true
		}
	})
}

// OnOneGoroutine reports whether the whole plan under root executes on its
// caller's goroutine: no parallel operator, or every one in lockstep. Only
// such a run's mid-run instants are synchronized points, so test checkers
// read it from the plan rather than being told.
func OnOneGoroutine(root Operator) bool {
	one := true
	Walk(root, func(op Operator) {
		if g, ok := op.(interface{ transport() *gather }); ok && !g.transport().lockstep {
			one = false
		}
	})
	return one
}

// start begins a run of `workers` workers. open(w) prepares worker w — it
// runs on the worker's own goroutine, or for lockstep on the caller's, in
// worker order, before any step — and returns its step. In lockstep mode an
// open error is returned here; concurrently it surfaces from the reader.
func (g *gather) start(workers int, open func(w int) (workerStep, error)) error {
	g.stop()
	g.buf, g.pos, g.firstErr = nil, 0, nil
	if g.lockstep {
		g.steps, g.idx = make([]workerStep, workers), 0
		for w := range g.steps {
			step, err := open(w)
			if err != nil {
				return err
			}
			g.steps[w] = step
		}
		return nil
	}
	g.ch = make(chan *Batch, workers)     // one batch in flight per worker
	g.free = make(chan *Batch, 2*workers) // in flight + being filled
	g.quit = make(chan struct{})
	g.live.Store(int32(workers))
	g.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go g.run(w, open)
	}
	return nil
}

// run is a concurrent worker's goroutine: open, then step until done, an
// error, or quit.
func (g *gather) run(w int, open func(w int) (workerStep, error)) {
	defer g.wg.Done()
	defer func() {
		if g.live.Add(-1) == 0 {
			close(g.ch)
		}
	}()
	step, err := open(w)
	for t := turnOver; err == nil && t != turnLast; {
		wb := g.getBatch()
		t, err = step(wb)
		if err != nil || (wb.Len() == 0 && wb.units == 0) {
			g.putBatch(wb)
			continue
		}
		select {
		case g.ch <- wb:
		case <-g.quit:
			return
		}
	}
	if err != nil {
		g.fail(err)
	}
}

// fail records a worker's error; the first one wins. A scan worker fails
// only on a storage error: injected faults and cancellation reach the
// reader's credits, never a worker.
func (g *gather) fail(err error) {
	g.errMu.Lock()
	if g.firstErr == nil {
		g.firstErr = err
	}
	g.errMu.Unlock()
}

// getBatch takes a recycled batch off the free list, or allocates one.
func (g *gather) getBatch() *Batch {
	select {
	case b := <-g.free:
		b.Reset()
		return b
	default:
		return &Batch{}
	}
}

// putBatch returns a spent batch to the free list (dropping it if full, and
// always in lockstep mode, which has no list). Only the batch's Rows backing
// is reused — the rows it carried remain valid wherever they were handed.
func (g *gather) putBatch(b *Batch) {
	select {
	case g.free <- b:
	default:
	}
}

// recv returns the next worker batch carrying rows or units, or nil once
// every worker has finished — with the run's error, if one failed.
func (g *gather) recv() (*Batch, error) {
	if !g.lockstep {
		if wb, ok := <-g.ch; ok {
			return wb, nil
		}
		g.errMu.Lock()
		defer g.errMu.Unlock()
		return nil, g.firstErr
	}
	for idle := 0; idle < len(g.steps); {
		w := g.idx
		if g.steps[w] == nil {
			g.idx = (w + 1) % len(g.steps)
			idle++
			continue
		}
		idle = 0
		g.ls.Reset()
		t, err := g.steps[w](&g.ls)
		if err != nil {
			return nil, err
		}
		if t != turnHeld {
			g.idx = (w + 1) % len(g.steps)
		}
		if t == turnLast {
			g.steps[w] = nil
		}
		if g.ls.Len() > 0 || g.ls.units > 0 {
			return &g.ls, nil
		}
	}
	return nil, nil
}

// next is the NextBatch of a node whose workers produce its rows: it hands
// out up to want unread rows of the current worker batch, or else of the
// next one (row headers only — values are never copied, and the caller's
// buffer is never donated to the free list: RunBatch may alias it to the
// result slice), and credits them on n's slot. A worker batch's weighted
// read units are credited before its first row, as a serial Scan credits a
// page's units before the rows read from it; a batch that carries only
// units is passed over, so an empty b is end of stream and marks the node
// done.
func (g *gather) next(ctx *Ctx, n *base, b *Batch, want int) error {
	b.Reset()
	if ctx.canceled.Load() {
		return ErrCanceled
	}
	var units int64
	for b.Len() == 0 {
		if g.buf == nil {
			var err error
			if g.buf, err = g.recv(); err != nil {
				return err
			}
			if g.buf == nil {
				break
			}
			g.pos, units = 0, units+g.buf.units
		}
		k := min(want, g.buf.Len()-g.pos)
		b.Rows = append(b.Rows, g.buf.Rows[g.pos:g.pos+k]...)
		if g.pos += k; g.pos == g.buf.Len() {
			g.putBatch(g.buf)
			g.buf = nil
		}
	}
	if err := ctx.credit(n.slot, units, 0); err != nil {
		return err
	}
	if b.Len() == 0 {
		n.markDone()
		return nil
	}
	return ctx.credit(n.slot, 0, b.Len())
}

// stop tears a concurrent run down: signals quit and waits for every worker
// goroutine to exit, so the children are quiesced when the caller closes
// them. Safe to call when never started, already stopped, or in lockstep.
func (g *gather) stop() {
	if g.quit != nil {
		close(g.quit)
		g.wg.Wait()
		g.quit = nil
	}
	g.buf = nil
}

// morselRows is the nominal morsel size: enough rows that claiming one
// (an atomic add) is amortized to nothing, small enough that an idle worker
// never waits long behind a straggler.
const morselRows = 4096

// ParallelScan is the morsel-driven parallel scan: one leaf plan node whose
// scan positions are carved into page-aligned morsels (Store.AlignWindow)
// claimed dynamically by whichever worker is idle, so uneven costs never
// stall the plan behind one static partition. A worker's batch carries the
// weighted read units its morsel's pages charged; the reader credits them
// and the rows it hands out, so a drained scan's counters — and its final
// bounds [n, n+MaxReadUnits] — are exactly a serial scan's.
//
// Row order across morsels is nondeterministic unless the plan runs in
// lockstep. Predicates and permutations are not supported: a predicate goes
// in a Filter above the scan.
type ParallelScan struct {
	base
	Src     schema.Store
	workers int

	morsels    int
	nextMorsel atomic.Int64

	g    gather
	curs []schema.Cursor // worker w's open morsel cursor, if any
}

// NewParallelScan builds a morsel-driven parallel scan of st with the given
// worker count.
func NewParallelScan(st schema.Store, workers int) *ParallelScan {
	if workers < 1 {
		panic("exec: parallel scan needs at least one worker")
	}
	p := &ParallelScan{Src: st, workers: workers, curs: make([]schema.Cursor, workers)}
	n := int(st.Cardinality())
	p.morsels = (n + morselRows - 1) / morselRows
	if p.morsels < workers {
		p.morsels = workers
	}
	p.init(st.Schema())
	return p
}

func (p *ParallelScan) transport() *gather { return &p.g }

// Open implements Operator: resets the morsel counter and starts the
// workers.
func (p *ParallelScan) Open(ctx *Ctx) error {
	if err := p.Close(); err != nil {
		return err
	}
	p.reopen()
	p.nextMorsel.Store(0)
	return p.g.start(p.workers, func(w int) (workerStep, error) {
		return func(out *Batch) (turn, error) { return p.scanStep(ctx, w, out) }, nil
	})
}

// scanStep fills out with worker w's next batch: rows of its current morsel
// (a batch never spans morsels) and the weighted read units they charged. A
// worker holds its turn until its morsel is drained, so in lockstep morsel m
// is scanned whole, by worker m mod W, before morsel m+1 is touched.
func (p *ParallelScan) scanStep(ctx *Ctx, w int, out *Batch) (turn, error) {
	if p.curs[w] == nil {
		m := int(p.nextMorsel.Add(1)) - 1
		if m >= p.morsels {
			return turnLast, nil
		}
		lo, hi := p.Src.AlignWindow(m, p.morsels)
		if lo >= hi {
			return turnOver, nil
		}
		cur, err := p.Src.OpenCursor(lo, hi, nil)
		if err != nil {
			return turnOver, err
		}
		p.curs[w] = cur
	}
	for want := ctx.chunkSize(); out.Len() < want; {
		rows, u, err := p.curs[w].NextChunk(want - out.Len())
		if err != nil {
			return turnHeld, err
		}
		out.units += u
		if len(rows) == 0 {
			p.curs[w].Close() // read-only cursor: nothing to lose
			p.curs[w] = nil
			return turnOver, nil
		}
		out.Rows = append(out.Rows, rows...)
	}
	return turnHeld, nil
}

// NextBatch implements Operator: hands out and credits up to want scanned
// rows (see gather.next).
func (p *ParallelScan) NextBatch(ctx *Ctx, b *Batch, want int) error {
	return p.g.next(ctx, &p.base, b, want)
}

// Close implements Operator: stops the workers, then closes any morsel
// cursor one of them left open.
func (p *ParallelScan) Close() error {
	p.g.stop()
	var first error
	for w, cur := range p.curs {
		if cur != nil {
			if err := cur.Close(); err != nil && first == nil {
				first = err
			}
			p.curs[w] = nil
		}
	}
	return first
}

// Children implements Operator: the morsel scan is a leaf.
func (p *ParallelScan) Children() []Operator { return nil }

// Name implements Operator.
func (p *ParallelScan) Name() string {
	return fmt.Sprintf("ParallelScan(%s, w=%d)", p.Src.StoreName(), p.workers)
}

// FinalBounds implements Operator: the workers jointly scan every stored row
// exactly once, plus up to MaxReadUnits weighted units cold — identical to a
// serial whole-store Scan, because worker count never changes the work.
func (p *ParallelScan) FinalBounds([]CardBounds) CardBounds {
	n := p.Src.Cardinality()
	b := CardBounds{LB: n, UB: n}
	if rc, ok := p.Src.(schema.ReadCoster); ok {
		b.UB = SatAdd(b.UB, rc.MaxReadUnits(0, int(n)))
	}
	return b
}

// DeliveredBounds implements DeliveredBounder: every stored row is handed to
// the parent; weighted read units inflate this node's call count only.
func (p *ParallelScan) DeliveredBounds() CardBounds {
	n := p.Src.Cardinality()
	return CardBounds{LB: n, UB: n}
}

// MaxReadUnits implements WeightedLeaf.
func (p *ParallelScan) MaxReadUnits() int64 {
	if rc, ok := p.Src.(schema.ReadCoster); ok {
		return rc.MaxReadUnits(0, int(p.Src.Cardinality()))
	}
	return 0
}

// StreamChildren implements Operator.
func (p *ParallelScan) StreamChildren() []int { return nil }

// BlockingChildren implements Operator.
func (p *ParallelScan) BlockingChildren() []int { return nil }
