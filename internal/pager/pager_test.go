package pager

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"sqlprogress/internal/schema"
	"sqlprogress/internal/sqlval"
)

// testRel builds an in-memory relation of n rows (a BIGINT, b VARCHAR,
// c DOUBLE) with deterministic contents.
func testRel(t testing.TB, name string, n int) *schema.Relation {
	t.Helper()
	rel := schema.NewRelation(name, schema.New(
		schema.Column{Name: "a", Type: sqlval.KindInt},
		schema.Column{Name: "b", Type: sqlval.KindString},
		schema.Column{Name: "c", Type: sqlval.KindFloat},
	))
	for i := 0; i < n; i++ {
		rel.Append(schema.Row{
			sqlval.Int(int64(i)),
			sqlval.String(fmt.Sprintf("row-%d", i)),
			sqlval.Float(float64(i) / 3),
		})
	}
	return rel
}

// writeTestFile materializes rel as a heap file in a temp dir.
func writeTestFile(t *testing.T, rel *schema.Relation) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), rel.Name+".heap")
	if err := WriteRelation(path, rel); err != nil {
		t.Fatalf("WriteRelation: %v", err)
	}
	return path
}

func openTestFile(t *testing.T, path string) *HeapFile {
	t.Helper()
	hf, err := OpenHeapFile(path)
	if err != nil {
		t.Fatalf("OpenHeapFile: %v", err)
	}
	t.Cleanup(func() { hf.Close() })
	return hf
}

// sameValue reports whether a and b have the same kind and content, which
// String renders exactly. reflect.DeepEqual would compare where a string's
// bytes live, not what they hold.
func sameValue(a, b sqlval.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

// sameRow reports whether a and b hold the same values, by sameValue.
func sameRow(a, b schema.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func TestHeapFileRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 7, 1000, 5000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rel := testRel(t, "t", n)
			hf := openTestFile(t, writeTestFile(t, rel))
			if hf.name != "t" {
				t.Fatalf("name %q", hf.name)
			}
			if hf.Rows() != int64(n) {
				t.Fatalf("rows %d != %d", hf.Rows(), n)
			}
			if got, want := hf.sch.String(), rel.Schema().String(); got != want {
				t.Fatalf("schema %s != %s", got, want)
			}
			pr := NewPagedRelation(hf, NewPool(0))
			cur, err := pr.OpenCursor(nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				rows, _, err := cur.NextChunk(1)
				if err != nil || len(rows) != 1 {
					t.Fatalf("row %d: %d rows, err=%v", i, len(rows), err)
				}
				if !sameRow(rows[0], rel.Rows[i]) {
					t.Fatalf("row %d: got %v want %v", i, rows[0], rel.Rows[i])
				}
			}
			if rows, _, _ := cur.NextChunk(1); len(rows) != 0 {
				t.Fatal("rows past end")
			}
			cur.Close()
		})
	}
}

func TestHeapFileMultiDirectoryPage(t *testing.T) {
	// Wide rows so the file spans enough data pages to need >1 directory
	// page would be huge; instead just verify the single-page directory
	// math on a file with many pages of small rows.
	rel := testRel(t, "big", 20000)
	hf := openTestFile(t, writeTestFile(t, rel))
	if hf.DataPages() < 2 {
		t.Fatalf("want multiple data pages, got %d", hf.DataPages())
	}
	var sum int64
	for p := uint32(0); p < hf.DataPages(); p++ {
		sum += hf.cum[p+1] - hf.cum[p]
	}
	if sum != hf.Rows() {
		t.Fatalf("directory row sum %d != %d", sum, hf.Rows())
	}
}

func TestPoolHitMissEviction(t *testing.T) {
	rel := testRel(t, "e", 20000)
	hf := openTestFile(t, writeTestFile(t, rel))
	pages := int(hf.DataPages())
	if pages < 8 {
		t.Fatalf("need several pages, got %d", pages)
	}
	pool := NewPool(4)
	pr := NewPagedRelation(hf, pool)

	scan := func() {
		cur, err := pr.OpenCursor(nil)
		if err != nil {
			t.Fatal(err)
		}
		for {
			rows, _, err := cur.NextChunk(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				break
			}
		}
		cur.Close()
	}
	scan()
	st := pool.Stats()
	if st.Misses != int64(pages) {
		t.Fatalf("cold scan misses %d != pages %d", st.Misses, pages)
	}
	if st.BytesRead != int64(pages)*PageSize {
		t.Fatalf("bytes read %d", st.BytesRead)
	}
	if st.Evictions != int64(pages-4) {
		t.Fatalf("evictions %d, want %d", st.Evictions, pages-4)
	}
	// Second scan of a file larger than the pool: sequential flooding keeps
	// missing (CLOCK keeps no useful tail), so misses grow.
	scan()
	st2 := pool.Stats()
	if st2.Misses <= st.Misses {
		t.Fatalf("second over-capacity scan should still miss: %d -> %d", st.Misses, st2.Misses)
	}

	// A pool large enough for the whole file serves the second scan
	// entirely from memory.
	warm := NewPool(pages + 1)
	pr2 := NewPagedRelation(hf, warm)
	read := func() {
		cur, _ := pr2.OpenCursor(nil)
		for {
			rows, _, err := cur.NextChunk(1 << 20)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				break
			}
		}
		cur.Close()
	}
	read()
	read()
	wst := warm.Stats()
	if wst.Misses != int64(pages) || wst.Hits != int64(pages) {
		t.Fatalf("warm rescan: hits=%d misses=%d, want %d/%d", wst.Hits, wst.Misses, pages, pages)
	}
	if wst.Evictions != 0 {
		t.Fatalf("warm rescan evicted %d", wst.Evictions)
	}
}

// TestPoolGetWaitsForRelease: a Get that finds every frame pinned waits
// until another goroutine releases one, then loads its page into it.
func TestPoolGetWaitsForRelease(t *testing.T) {
	rel := testRel(t, "x", 5000)
	hf := openTestFile(t, writeTestFile(t, rel))
	if hf.DataPages() < 3 {
		t.Skip("file too small")
	}
	pool := NewPool(2)
	f := pool.Register(hf.Backend())
	fr0, _, err := pool.Get(f, hf.dataStart)
	if err != nil {
		t.Fatal(err)
	}
	fr1, _, err := pool.Get(f, hf.dataStart+1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		fr2, miss, err := pool.Get(f, hf.dataStart+2)
		if err == nil {
			if !miss {
				err = errors.New("waiting Get counted a hit")
			}
			pool.Release(fr2)
		}
		got <- err
	}()
	// The Get blocks until a frame unpins; wait for it to register.
	for {
		pool.mu.Lock()
		w := pool.waiting
		pool.mu.Unlock()
		if w == 1 {
			break
		}
		runtime.Gosched()
	}
	select {
	case err := <-got:
		t.Fatalf("Get returned (%v) while every frame was pinned", err)
	default:
	}
	go pool.Release(fr1)
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	pool.Release(fr0)
	if n := pool.Pinned(); n != 0 {
		t.Fatalf("%d frame(s) still pinned", n)
	}
}

// flakyBackend fails reads of one page a fixed number of times.
type flakyBackend struct {
	Backend
	mu       sync.Mutex
	failPage uint32
	left     int
}

func (b *flakyBackend) ReadPage(page uint32, buf []byte) error {
	b.mu.Lock()
	fail := page == b.failPage && b.left > 0
	if fail {
		b.left--
	}
	b.mu.Unlock()
	if fail {
		return errors.New("flaky: injected read failure")
	}
	return b.Backend.ReadPage(page, buf)
}

func TestPoolFailedLoadRetries(t *testing.T) {
	rel := testRel(t, "f", 5000)
	hf := openTestFile(t, writeTestFile(t, rel))
	pool := NewPool(4)
	fb := &flakyBackend{Backend: hf.Backend(), failPage: hf.dataStart, left: 2}
	f := pool.Register(fb)
	for i := 0; i < 2; i++ {
		if _, _, err := pool.Get(f, hf.dataStart); err == nil {
			t.Fatalf("attempt %d: want injected failure", i)
		}
	}
	fr, miss, err := pool.Get(f, hf.dataStart)
	if err != nil {
		t.Fatalf("after failures: %v", err)
	}
	if !miss {
		t.Fatal("retry after failed load must be a physical read")
	}
	pool.Release(fr)
	// The failed frames must have been recycled, not leaked.
	if st := pool.Stats(); st.Misses != 3 {
		t.Fatalf("misses %d, want 3", st.Misses)
	}
}

// TestPoolConcurrentReaders scans one store from eight goroutines at once
// through one small pool, as the daemon's concurrent sessions share theirs.
func TestPoolConcurrentReaders(t *testing.T) {
	rel := testRel(t, "c", 30000)
	hf := openTestFile(t, writeTestFile(t, rel))
	pool := NewPool(8)
	pr := NewPagedRelation(hf, pool)
	const readers = 8
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cur, err := pr.OpenCursor(nil)
			if err != nil {
				errs <- err
				return
			}
			defer cur.Close()
			n := 0
			for {
				rows, _, err := cur.NextChunk(256)
				if err != nil {
					errs <- err
					return
				}
				if len(rows) == 0 {
					break
				}
				n += len(rows)
			}
			if int64(n) != pr.Cardinality() {
				errs <- fmt.Errorf("reader %d: %d rows, want %d", w, n, pr.Cardinality())
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Misses < int64(hf.DataPages()) {
		t.Fatalf("misses %d below page count %d", st.Misses, hf.DataPages())
	}
}

func TestMaxReadUnits(t *testing.T) {
	rel := testRel(t, "u", 10000)
	pr := NewPagedRelation(openTestFile(t, writeTestFile(t, rel)), NewPool(0))
	if got := pr.MaxReadUnits(); got != 0 {
		t.Fatalf("zero read cost charged %d units", got)
	}
	pr.SetReadCost(7)
	want := 7 * int64(pr.hf.DataPages())
	if got := pr.MaxReadUnits(); got != want {
		t.Fatalf("full scan units %d, want %d", got, want)
	}
	empty := NewPagedRelation(openTestFile(t, writeTestFile(t, testRel(t, "u0", 0))), NewPool(0))
	empty.SetReadCost(7)
	if got := empty.MaxReadUnits(); got != 0 {
		t.Fatalf("empty relation units %d", got)
	}
}

func TestCursorUnitsChargedOncePerPhysicalRead(t *testing.T) {
	rel := testRel(t, "uc", 5000)
	hf := openTestFile(t, writeTestFile(t, rel))
	pool := NewPool(int(hf.DataPages()) + 1)
	pr := NewPagedRelation(hf, pool)
	pr.SetReadCost(3)
	sum := func() int64 {
		cur, err := pr.OpenCursor(nil)
		if err != nil {
			t.Fatal(err)
		}
		defer cur.Close()
		var units int64
		for {
			rows, u, err := cur.NextChunk(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) == 0 {
				return units
			}
			units += u
		}
	}
	cold := sum()
	if want := 3 * int64(hf.DataPages()); cold != want {
		t.Fatalf("cold scan units %d, want %d", cold, want)
	}
	if warm := sum(); warm != 0 {
		t.Fatalf("warm scan charged %d units", warm)
	}
}
