package pager

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultPoolFrames is the frame count of a pool built with NewPool(0):
// 64 frames × 8 KiB = 512 KiB of cache, small enough that the benchmark
// relations do not fit — cold scans actually evict.
const DefaultPoolFrames = 64

// Stats is a point-in-time copy of the pool's counters. All counters are
// cumulative over the pool's lifetime.
type Stats struct {
	// Hits is the number of Get calls served from a resident frame
	// (including waits on a frame another goroutine was already loading).
	Hits int64 `json:"hits"`
	// Misses is the number of Get calls that performed a physical read.
	Misses int64 `json:"misses"`
	// Evictions is the number of resident pages displaced by CLOCK.
	Evictions int64 `json:"evictions"`
	// Pins is the total number of page pins taken.
	Pins int64 `json:"pins"`
	// BytesRead is the total bytes physically read from backends.
	BytesRead int64 `json:"bytes_read"`
}

// HitRatio is hits / (hits + misses), or 0 before any access.
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// String renders the stats the way cmd/sqlrun prints them.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evictions=%d pins=%d bytes_read=%d hit_ratio=%.3f",
		s.Hits, s.Misses, s.Evictions, s.Pins, s.BytesRead, s.HitRatio())
}

// pageKey identifies one page of one attached file.
type pageKey struct {
	file uint32
	page uint32
}

// Frame is one pool slot holding a resident (or loading) page. Callers get
// a pinned *Frame from Pool.Get and must Release it when done with the
// page bytes.
type Frame struct {
	key  pageKey
	buf  []byte
	pins int
	ref  bool
	// ready is closed once the frame's load I/O has finished; err is set
	// before the close, so waiters observing the close see a consistent
	// result. dead marks a frame whose load failed — it leaves the page
	// table immediately and returns to the free list at last unpin.
	ready chan struct{}
	err   error
	dead  bool
}

// Data returns the page bytes. Valid until Release.
func (f *Frame) Data() []byte { return f.buf }

// File is a pool registration handle for one backend.
type File struct {
	pool *Pool
	b    Backend
	id   uint32
}

// Pool is a shared buffer pool of page frames with pinning and CLOCK
// eviction. It is safe for concurrent use; the mutex guards only the page
// table and frame metadata — physical reads run outside the lock, so
// concurrent sessions' cold reads overlap instead of serializing. A Get that
// finds every frame pinned waits for a Release: a cursor pins a page only
// while it loads it, so a pin is always about to be released.
type Pool struct {
	mu      sync.Mutex
	freed   sync.Cond // signalled by Release when a frame unpins and a Get waits
	waiting int       // Gets blocked on freed
	cap     int
	frames  []*Frame
	free    []*Frame
	table   map[pageKey]*Frame
	hand    int
	nextID  uint32

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	pins      atomic.Int64
	bytesRead atomic.Int64
}

// NewPool builds a pool with the given frame capacity (DefaultPoolFrames
// when frames <= 0).
func NewPool(frames int) *Pool {
	if frames <= 0 {
		frames = DefaultPoolFrames
	}
	p := &Pool{cap: frames, table: make(map[pageKey]*Frame)}
	p.freed.L = &p.mu
	return p
}

// Register attaches a backend to the pool, returning the handle page reads
// go through.
func (p *Pool) Register(b Backend) *File {
	p.mu.Lock()
	defer p.mu.Unlock()
	f := &File{pool: p, b: b, id: p.nextID}
	p.nextID++
	return f
}

// Stats returns a snapshot of the pool counters.
func (p *Pool) Stats() Stats {
	return Stats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Pins:      p.pins.Load(),
		BytesRead: p.bytesRead.Load(),
	}
}

// Pinned returns how many frames are pinned right now. Once every cursor
// over the pool's files is closed it is zero; anything else is a Get whose
// Release was lost.
func (p *Pool) Pinned() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, fr := range p.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}

// Capacity returns the pool's frame capacity.
func (p *Pool) Capacity() int { return p.cap }

// Get returns the frame holding the given page, pinned, reading it from
// the backend on a miss. miss reports whether this call performed the
// physical read — the signal weighted scan crediting keys on. The caller
// must Release the frame exactly once.
//
// When another goroutine is already loading the page, Get counts a hit
// (the read was not duplicated) and waits for that load; per-frame ready
// channels make the wait per-page, so two readers faulting different pages
// never serialize each other's I/O. When every frame is pinned, Get waits
// for a Release and looks again: the page may have been loaded meanwhile.
func (p *Pool) Get(f *File, page uint32) (fr *Frame, miss bool, err error) {
	key := pageKey{file: f.id, page: page}
	p.mu.Lock()
	for {
		if fr := p.table[key]; fr != nil {
			fr.pins++
			fr.ref = true
			ready := fr.ready
			p.mu.Unlock()
			p.pins.Add(1)
			p.hits.Add(1)
			<-ready
			if fr.err != nil {
				err := fr.err
				p.Release(fr)
				return nil, false, err
			}
			return fr, false, nil
		}
		if fr = p.grabFrameLocked(); fr != nil {
			break
		}
		p.waiting++
		p.freed.Wait()
		p.waiting--
	}
	fr.key = key
	fr.pins = 1
	fr.ref = true
	fr.err = nil
	fr.dead = false
	fr.ready = make(chan struct{})
	p.table[key] = fr
	p.mu.Unlock()
	p.pins.Add(1)
	p.misses.Add(1)

	readErr := f.b.ReadPage(page, fr.buf)
	p.mu.Lock()
	if readErr != nil {
		// A failed load must not stay addressable: drop the frame from the
		// table so the next Get retries the read, and recycle it once every
		// waiter has unpinned.
		fr.err = readErr
		fr.dead = true
		delete(p.table, key)
	} else {
		p.bytesRead.Add(PageSize)
	}
	close(fr.ready)
	p.mu.Unlock()
	if readErr != nil {
		p.Release(fr)
		return nil, true, readErr
	}
	return fr, true, nil
}

// Release unpins a frame obtained from Get.
func (p *Pool) Release(fr *Frame) {
	p.mu.Lock()
	fr.pins--
	if fr.pins < 0 {
		p.mu.Unlock()
		panic("pager: frame released more times than pinned")
	}
	if fr.pins == 0 && fr.dead {
		fr.dead = false
		fr.key = pageKey{}
		p.free = append(p.free, fr)
	}
	if fr.pins == 0 && p.waiting > 0 {
		p.freed.Broadcast()
	}
	p.mu.Unlock()
}

// grabFrameLocked returns an empty frame to load into: off the free list,
// freshly allocated while under capacity, or by evicting an unpinned
// resident page chosen by the CLOCK hand (referenced frames get one second
// chance). It returns nil when every frame is pinned. Caller holds p.mu.
func (p *Pool) grabFrameLocked() *Frame {
	if n := len(p.free); n > 0 {
		fr := p.free[n-1]
		p.free = p.free[:n-1]
		return fr
	}
	if len(p.frames) < p.cap {
		fr := &Frame{buf: make([]byte, PageSize)}
		p.frames = append(p.frames, fr)
		return fr
	}
	// Two full sweeps: the first may only clear reference bits, the second
	// must then find a victim unless every frame is pinned. Loading frames
	// hold a pin, so a frame is never evicted mid-load.
	for i := 0; i < 2*len(p.frames); i++ {
		fr := p.frames[p.hand]
		p.hand = (p.hand + 1) % len(p.frames)
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		delete(p.table, fr.key)
		p.evictions.Add(1)
		return fr
	}
	return nil
}
