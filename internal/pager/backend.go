package pager

import (
	"fmt"
	"os"
)

// Backend is the narrow I/O seam every page read goes through. The buffer
// pool performs physical reads only via this interface, which is what lets
// the fault layer wrap a backend and inject latency spikes, read errors,
// and cancellations at exact page indexes — page-granular, deterministic,
// and independent of call-count timing.
type Backend interface {
	// ReadPage fills buf (PageSize bytes) with the contents of the given
	// page. Reads may run concurrently from several goroutines.
	ReadPage(page uint32, buf []byte) error
	// NumPages is the total page count of the file.
	NumPages() uint32
	// Close releases the underlying resource.
	Close() error
}

// FileBackend reads pages from an on-disk heap file via positional reads
// (ReadAt), so concurrent readers' page reads need no seek coordination.
type FileBackend struct {
	f     *os.File
	pages uint32
}

// OpenFileBackend opens a heap file for page reads.
func OpenFileBackend(path string) (*FileBackend, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size()%PageSize != 0 {
		f.Close()
		return nil, fmt.Errorf("pager: %s: size %d is not a multiple of the page size", path, st.Size())
	}
	return &FileBackend{f: f, pages: uint32(st.Size() / PageSize)}, nil
}

// ReadPage implements Backend.
func (b *FileBackend) ReadPage(page uint32, buf []byte) error {
	if page >= b.pages {
		return fmt.Errorf("pager: page %d out of range (%d pages)", page, b.pages)
	}
	_, err := b.f.ReadAt(buf[:PageSize], int64(page)*PageSize)
	return err
}

// NumPages implements Backend.
func (b *FileBackend) NumPages() uint32 { return b.pages }

// Close implements Backend.
func (b *FileBackend) Close() error { return b.f.Close() }
