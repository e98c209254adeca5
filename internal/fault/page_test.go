package fault

import (
	"errors"
	"testing"
	"time"
)

// memBackend is a trivial in-memory pager backend for wrapper tests.
type memBackend struct {
	pages int
	reads []uint32
}

func (m *memBackend) ReadPage(page uint32, buf []byte) error {
	m.reads = append(m.reads, page)
	for i := range buf {
		buf[i] = byte(page)
	}
	return nil
}
func (m *memBackend) NumPages() uint32 { return uint32(m.pages) }
func (m *memBackend) Close() error     { return nil }

func TestPageBackendError(t *testing.T) {
	inner := &memBackend{pages: 8}
	pb := WrapBackend(inner, PageFault{Page: 3, Fail: true})
	buf := make([]byte, 16)
	if err := pb.ReadPage(2, buf); err != nil {
		t.Fatalf("unfaulted page: %v", err)
	}
	err := pb.ReadPage(3, buf)
	if !errors.Is(err, ErrPageFault) {
		t.Fatalf("faulted page returned %v, want ErrPageFault", err)
	}
	var pre *PageReadError
	if !errors.As(err, &pre) || pre.Page != 3 {
		t.Fatalf("error %v does not carry page index 3", err)
	}
	if len(inner.reads) != 1 || inner.reads[0] != 2 {
		t.Fatalf("inner backend saw reads %v, want only page 2", inner.reads)
	}
	if !pb.FiredError() {
		t.Fatal("FiredError() = false after a failing fault fired")
	}
	// Persistent fault: the retry fails again.
	if err := pb.ReadPage(3, buf); !errors.Is(err, ErrPageFault) {
		t.Fatalf("retry of persistent fault returned %v", err)
	}
}

func TestPageBackendOnce(t *testing.T) {
	inner := &memBackend{pages: 8}
	pb := WrapBackend(inner, PageFault{Page: 5, Fail: true, Once: true})
	buf := make([]byte, 16)
	if err := pb.ReadPage(5, buf); !errors.Is(err, ErrPageFault) {
		t.Fatalf("first read returned %v, want ErrPageFault", err)
	}
	if err := pb.ReadPage(5, buf); err != nil {
		t.Fatalf("retry after Once fault: %v", err)
	}
	if got := len(pb.Fired()); got != 1 {
		t.Fatalf("fired %d faults, want 1", got)
	}
}

func TestPageBackendStall(t *testing.T) {
	inner := &memBackend{pages: 4}
	pb := WrapBackend(inner, PageFault{Page: 1, Stall: 5 * time.Millisecond})
	buf := make([]byte, 16)
	start := time.Now()
	if err := pb.ReadPage(1, buf); err != nil {
		t.Fatalf("stalled read failed: %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("stalled read returned after %v, want >= 5ms", d)
	}
	if buf[0] != 1 {
		t.Fatal("stalled read did not deliver page data")
	}
	if pb.FiredError() {
		t.Fatal("FiredError() = true for a stall-only fault")
	}
}

// Fired returns the faults that actually triggered, in firing order. Valid
// once the run has finished.
func (p *PageBackend) Fired() []PageFault {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]PageFault(nil), p.fired...)
}
