package fault

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"sqlprogress/internal/pager"
)

// This file is the physical layer's counterpart to the call-indexed
// Schedule: fault points keyed by exact file page index, interposed on the
// pager.Backend seam. A page-read error models a lost or unreadable page; a
// page stall models a disk latency spike hitting one specific read. The
// third physical failure mode — cancellation landing mid-page — needs no
// backend hook: a paged scan with a nonzero read cost charges its
// physical-read units as individual counted ticks, so a CancelFault whose
// At lands on a unit tick cancels between a page's read and its rows.

// ErrPageFault is the sentinel every injected page-read error matches via
// errors.Is.
var ErrPageFault = errors.New("fault: injected page-read error")

// PageReadError is the error an armed page fault surfaces from ReadPage.
type PageReadError struct {
	// Page is the file page index the read targeted.
	Page uint32
}

// Error implements error.
func (e *PageReadError) Error() string {
	return fmt.Sprintf("fault: injected page-read error at page %d", e.Page)
}

// Is reports a match against ErrPageFault.
func (e *PageReadError) Is(target error) bool { return target == ErrPageFault }

// PageFault is one physical-read fault point.
type PageFault struct {
	// Page is the file page index (0-based, absolute) the fault arms on.
	Page uint32
	// Fail makes ReadPage return a PageReadError.
	Fail bool
	// Stall delays the read — a latency spike on one physical page.
	Stall time.Duration
	// Once disarms the fault after its first firing, so retries (a pool
	// re-reading after a failed load) succeed.
	Once bool
}

// PageBackend wraps a pager.Backend with page-indexed fault points. It is
// single-use per execution for deterministic replay: Fired reports the
// faults that actually triggered. The wrapped backend is not closed by
// Close — the fixture that owns it decides its lifetime, so one heap file
// can back many fault runs.
type PageBackend struct {
	inner pager.Backend

	mu    sync.Mutex
	armed map[uint32]PageFault
	fired []PageFault
}

// WrapBackend interposes the fault points on inner. Later faults replace
// earlier ones armed on the same page.
func WrapBackend(inner pager.Backend, faults ...PageFault) *PageBackend {
	p := &PageBackend{inner: inner, armed: make(map[uint32]PageFault, len(faults))}
	for _, f := range faults {
		p.armed[f.Page] = f
	}
	return p
}

// ReadPage implements pager.Backend: it fires any fault armed on the page,
// then (stalls aside) either fails or delegates to the wrapped backend.
func (p *PageBackend) ReadPage(page uint32, buf []byte) error {
	p.mu.Lock()
	f, ok := p.armed[page]
	if ok {
		p.fired = append(p.fired, f)
		if f.Once {
			delete(p.armed, page)
		}
	}
	p.mu.Unlock()
	if !ok {
		return p.inner.ReadPage(page, buf)
	}
	if f.Stall > 0 {
		time.Sleep(f.Stall)
	}
	if f.Fail {
		return &PageReadError{Page: page}
	}
	return p.inner.ReadPage(page, buf)
}

// NumPages implements pager.Backend.
func (p *PageBackend) NumPages() uint32 { return p.inner.NumPages() }

// Close implements pager.Backend without closing the wrapped backend.
func (p *PageBackend) Close() error { return nil }

// FiredError reports whether any failing fault triggered.
func (p *PageBackend) FiredError() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.fired {
		if f.Fail {
			return true
		}
	}
	return false
}
