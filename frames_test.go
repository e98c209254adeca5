package sqlprogress

import (
	"errors"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"sqlprogress/internal/compile"
	"sqlprogress/internal/core"
	"sqlprogress/internal/exec"
	"sqlprogress/internal/fault"
	"sqlprogress/internal/pager"
	"sqlprogress/internal/session"
)

// TestLibraryAndSessionFramesAgree runs one plan through the library and
// through a session, with periodic sampling out of the picture on both (a
// period past total(Q), a 24 h interval): the two publish the same frame 0
// and the same final frame, instant, bounds, interval, estimates and node
// rows alike, because both are one monitored run.
func TestLibraryAndSessionFramesAgree(t *testing.T) {
	db := sampleDB(t)
	const sql = "SELECT name, COUNT(*) FROM users, events WHERE id = uid GROUP BY name"

	q, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	var lib []core.Frame
	res, err := q.RunWithProgress(ProgressOptions{Estimator: Dne, Extra: []EstimatorKind{Pmax, Safe}, Every: 1 << 40}, func(u ProgressUpdate) {
		f := core.Frame{Calls: u.Calls, LB: u.LB, UB: u.UB, Lo: u.Lo, Hi: u.Hi, Estimates: map[string]float64{}, Nodes: u.Nodes}
		for k, v := range u.Estimates {
			f.Estimates[string(k)] = v
		}
		lib = append(lib, f)
	})
	if err != nil {
		t.Fatal(err)
	}

	m := session.New(db.cat, session.Config{SampleInterval: 24 * time.Hour, Estimators: []string{"dne", "pmax", "safe"}})
	defer m.Close()
	root, err := compile.CompileSQL(db.cat, sql)
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	// The gate holds the run past frame 0 until the subscription exists.
	s, err := m.SubmitPlan(root, sql, session.SubmitOptions{Instrument: func(*exec.Ctx) { <-gate }})
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub := s.Subscribe()
	defer unsub()
	close(gate)
	var events []session.Progress
	for p := range ch {
		events = append(events, p)
	}

	if len(lib) < 2 || len(events) < 2 {
		t.Fatalf("library published %d frames, the session %d events", len(lib), len(events))
	}
	if lib[0].Calls != 0 || lib[len(lib)-1].Calls != res.TotalCalls {
		t.Fatalf("library frames at %d..%d calls, want 0..%d", lib[0].Calls, lib[len(lib)-1].Calls, res.TotalCalls)
	}
	for _, pair := range []struct {
		name     string
		lib, ses core.Frame
	}{
		{"frame 0", lib[0], events[0].Frame},
		{"final frame", lib[len(lib)-1], events[len(events)-1].Frame},
	} {
		if !reflect.DeepEqual(pair.lib, pair.ses) {
			t.Errorf("%s: library %+v, session %+v", pair.name, pair.lib, pair.ses)
		}
	}
}

// TestRunWithProgressEndsWhereItStopped: a run that does not complete still
// delivers its final update, at the call where it stopped, and returns the
// error it would return unmonitored: an explicit Cancel, landing between two
// sampling instants, and a page-read error injected under a paged scan.
func TestRunWithProgressEndsWhereItStopped(t *testing.T) {
	t.Run("cancel", func(t *testing.T) {
		db := OpenTPCH(0.002, 2, 42)
		q, err := db.Query("SELECT COUNT(*) FROM orders, lineitem")
		if err != nil {
			t.Fatal(err)
		}
		var last ProgressUpdate
		canceled := make(chan struct{})
		_, err = q.RunWithProgress(ProgressOptions{Every: 1000}, func(u ProgressUpdate) {
			if last.Calls == 0 && u.Calls > 0 {
				// From another goroutine: the run goes on until the cancel
				// lands, past this update's instant.
				go func() { q.Cancel(); close(canceled) }()
			}
			last = u
		})
		<-canceled
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if stop := q.ctx.Calls(); last.Calls != stop {
			t.Fatalf("last update at %d calls, the run stopped at %d", last.Calls, stop)
		}
	})

	t.Run("page-read error", func(t *testing.T) {
		const rows = 20000
		build := func() (*Query, error) {
			db := Open()
			if err := db.CreateTable("n", []Column{{Name: "v", Type: Int}}); err != nil {
				return nil, err
			}
			vals := make([][]interface{}, rows)
			for i := range vals {
				vals[i] = []interface{}{i}
			}
			if err := db.Insert("n", vals...); err != nil {
				return nil, err
			}
			path := filepath.Join(t.TempDir(), "n.heap")
			if err := pager.WriteRelation(path, db.cat.MustRelation("n")); err != nil {
				return nil, err
			}
			hf, err := pager.OpenHeapFile(path)
			if err != nil {
				return nil, err
			}
			t.Cleanup(func() { hf.Close() })
			bad := fault.PageFault{Page: hf.DataStart() + hf.DataPages()/2, Fail: true}
			db.cat.AddStore(pager.NewPagedRelationBackend(hf, pager.NewPool(8), fault.WrapBackend(hf.Backend(), bad)))
			return db.Query("SELECT COUNT(*) FROM n")
		}
		plain, err := build()
		if err != nil {
			t.Fatal(err)
		}
		_, want := plain.Run()
		if !errors.Is(want, fault.ErrPageFault) {
			t.Fatalf("unmonitored run: err = %v, want a page-read error", want)
		}

		q, err := build()
		if err != nil {
			t.Fatal(err)
		}
		var last ProgressUpdate
		updates := 0
		// Pulls of 1024 rows, an update every 2000 calls: the scan fails at a
		// credit no sampling instant falls on.
		_, err = q.RunWithProgress(ProgressOptions{Every: 2000}, func(u ProgressUpdate) { last = u; updates++ })
		if err == nil || err.Error() != want.Error() || !errors.Is(err, fault.ErrPageFault) {
			t.Fatalf("monitored run: err = %v, want %v", err, want)
		}
		if stop := q.ctx.Calls(); last.Calls != stop || stop == 0 || stop >= rows {
			t.Fatalf("last of %d updates at %d calls, the run stopped at %d of %d", updates, last.Calls, stop, rows)
		}
	})
}
