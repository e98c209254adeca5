package pager

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// memFile serves a heap file's pages from memory: page 0 from meta, pages
// 1.. from dir, and every byte neither holds reads as zero — the data pages
// too, which readHeapMeta never reads. Trailing zeros need not be stored,
// so a fuzz input holds only the bytes that mean something.
type memFile struct {
	meta, dir []byte
	pages     uint32
}

func (m memFile) ReadPage(page uint32, buf []byte) error {
	if page >= m.pages {
		return fmt.Errorf("page %d out of range (%d pages)", page, m.pages)
	}
	buf = buf[:PageSize]
	clear(buf)
	if page == 0 {
		copy(buf, m.meta)
	} else if off := int64(page-1) * PageSize; off < int64(len(m.dir)) {
		copy(buf, m.dir[off:])
	}
	return nil
}

func (m memFile) NumPages() uint32 { return m.pages }

func (memFile) Close() error { return nil }

// wrapHeader is a meta page whose page counts wrap a uint32 sum: the
// directory size (4 292 871 167 + 2047) / 2048 = 2 096 129 is consistent,
// and 1 + 2 096 129 + 4 292 871 167 = 2^32 + 1 is 1 in uint32, the page
// count of the one-page file that holds it. With 32-bit sums the header
// passes both checks and asks for a 4 292 871 168-entry []int64 (≈ 34 GB)
// before it reads the directory.
func wrapHeader() []byte {
	sch := schema.New(schema.Column{Name: "a", Type: sqlval.KindInt})
	return encodeMeta("t", sch, 4_292_871_167, 2_096_129, 0)
}

func TestHeapMetaRejectsWrappedPageCount(t *testing.T) {
	if _, err := readHeapMeta(memFile{meta: wrapHeader(), pages: 1}); err == nil {
		t.Fatal("a header whose page counts wrap 32 bits was accepted")
	}
}

// FuzzOpenHeapFile: no input panics readHeapMeta, and a header it accepts
// describes the file it came from — its page counts add up to the file's
// and its directory sums to its row count. Seeded with the meta and
// directory pages of a written heap file and with wrapHeader.
func FuzzOpenHeapFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "t.heap")
	if err := WriteRelation(path, testRel(f, "t", 1000)); err != nil {
		f.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	hf, err := OpenHeapFile(path)
	if err != nil {
		f.Fatal(err)
	}
	hf.Close()
	trim := func(b []byte) []byte { return bytes.TrimRight(b, "\x00") }
	written := memFile{trim(file[:PageSize]), trim(file[PageSize : int(hf.dataStart)*PageSize]), uint32(len(file) / PageSize)}
	if _, err := readHeapMeta(written); err != nil {
		f.Fatalf("the written file's seed is refused: %v", err)
	}
	f.Add(written.meta, written.dir, uint16(written.pages))
	f.Add(trim(wrapHeader()), []byte(nil), uint16(1))
	f.Fuzz(func(t *testing.T, meta, dir []byte, pages uint16) {
		hf, err := readHeapMeta(memFile{meta: meta, dir: dir, pages: uint32(pages)})
		if err != nil {
			return
		}
		if got := uint64(hf.dataStart) + uint64(hf.dataPages); got != uint64(pages) {
			t.Fatalf("header counts %d pages, the file has %d", got, pages)
		}
		if len(hf.cum) != int(hf.dataPages)+1 || hf.cum[hf.dataPages] != hf.rows {
			t.Fatalf("directory of %d entries sums to %d, header says %d data pages and %d rows",
				len(hf.cum), hf.cum[len(hf.cum)-1], hf.dataPages, hf.rows)
		}
	})
}
