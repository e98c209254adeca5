package sqlprogress

import (
	"slices"
	"strings"
	"testing"
	"time"

	"sqlprogress/internal/expr"
	"sqlprogress/internal/plan"
)

func sampleDB(t *testing.T) *DB {
	t.Helper()
	db := Open()
	if err := db.CreateTable("users", []Column{
		{Name: "id", Type: Int},
		{Name: "name", Type: String},
		{Name: "score", Type: Float},
		{Name: "joined", Type: Date},
	}); err != nil {
		t.Fatal(err)
	}
	base := time.Date(2001, 1, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 50; i++ {
		if err := db.Insert("users", []interface{}{
			i, "user" + string(rune('a'+i%5)), float64(i) * 1.5, base.AddDate(0, 0, i),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.CreateTable("events", []Column{
		{Name: "eid", Type: Int},
		{Name: "uid", Type: Int},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := db.Insert("events", []interface{}{i, i % 50}); err != nil {
			t.Fatal(err)
		}
	}
	db.DeclareForeignKey("events", "uid", "users", "id")
	return db
}

func TestCreateInsertQuery(t *testing.T) {
	db := sampleDB(t)
	res, err := db.Exec("SELECT COUNT(*) FROM users WHERE score >= 30")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// score = 1.5*i >= 30 -> i >= 20: 30 rows.
	if got := res.Rows[0][0].AsInt(); got != 30 {
		t.Errorf("count = %d, want 30", got)
	}
	if res.TotalCalls == 0 || res.Mu < 1 {
		t.Errorf("accounting: calls=%d mu=%.3f", res.TotalCalls, res.Mu)
	}
}

func TestInsertTypeConversions(t *testing.T) {
	db := Open()
	if err := db.CreateTable("t", []Column{
		{Name: "a", Type: Int}, {Name: "b", Type: Float},
		{Name: "c", Type: String}, {Name: "d", Type: Bool}, {Name: "e", Type: Date},
	}); err != nil {
		t.Fatal(err)
	}
	err := db.Insert("t",
		[]interface{}{int32(1), float32(2.5), "x", true, time.Date(1999, 9, 9, 0, 0, 0, 0, time.UTC)},
		[]interface{}{nil, nil, nil, nil, nil},
	)
	if err != nil {
		t.Fatal(err)
	}
	res, err := db.Exec("SELECT * FROM t WHERE a IS NOT NULL")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
	if err := db.Insert("t", []interface{}{struct{}{}, nil, nil, nil, nil}); err == nil {
		t.Error("unsupported type should error")
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := Open()
	if err := db.CreateTable("empty", nil); err == nil {
		t.Error("empty column list should error")
	}
	if err := db.Insert("ghost", []interface{}{1}); err == nil {
		t.Error("insert into unknown table should error")
	}
}

func TestJoinQueryWithProgress(t *testing.T) {
	db := sampleDB(t)
	q, err := db.Query(`SELECT u.name, COUNT(*) AS cnt FROM events e
		JOIN users u ON e.uid = u.id GROUP BY u.name ORDER BY cnt DESC`)
	if err != nil {
		t.Fatal(err)
	}
	var updates []ProgressUpdate
	res, err := q.RunWithProgress(ProgressOptions{
		Estimator: Pmax,
		Extra:     []EstimatorKind{Dne, Safe, Trivial, HybridMu, HybridVar, DneConstrained},
		Every:     25,
	}, func(u ProgressUpdate) { updates = append(updates, u) })
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if len(updates) == 0 {
		t.Fatal("no progress updates delivered")
	}
	for _, u := range updates {
		if u.Estimate != u.Estimates[Pmax] {
			t.Error("headline estimate should come from the configured estimator")
		}
		if u.Lo > u.Hi || u.Lo < 0 || u.Hi > 1 {
			t.Errorf("interval [%f, %f] malformed", u.Lo, u.Hi)
		}
		truth := float64(u.Calls) / float64(res.TotalCalls)
		if truth < u.Lo-1e-9 || truth > u.Hi+1e-9 {
			t.Errorf("true progress %.4f outside [%.4f, %.4f]", truth, u.Lo, u.Hi)
		}
		if len(u.Estimates) != 7 {
			t.Errorf("estimates = %d kinds", len(u.Estimates))
		}
	}
	// Monotone sampling.
	for i := 1; i < len(updates); i++ {
		if updates[i].Calls <= updates[i-1].Calls {
			t.Error("updates should advance")
		}
	}
}

func TestQuerySingleUse(t *testing.T) {
	db := sampleDB(t)
	q, err := db.Query("SELECT id FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(); err == nil {
		t.Error("second Run should error")
	}
	q2, _ := db.Query("SELECT id FROM users")
	if _, err := q2.RunWithProgress(ProgressOptions{}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := q2.RunWithProgress(ProgressOptions{}, nil); err == nil {
		t.Error("second RunWithProgress should error")
	}
}

func TestDefaultEstimatorIsSafe(t *testing.T) {
	db := sampleDB(t)
	q, _ := db.Query("SELECT COUNT(*) FROM events")
	seen := false
	_, err := q.RunWithProgress(ProgressOptions{Every: 50}, func(u ProgressUpdate) {
		seen = true
		if _, ok := u.Estimates[Safe]; !ok {
			t.Error("default estimator should be safe")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Error("no updates")
	}
}

func TestUnknownEstimator(t *testing.T) {
	db := sampleDB(t)
	q, _ := db.Query("SELECT id FROM users")
	if _, err := q.RunWithProgress(ProgressOptions{Estimator: "bogus"}, nil); err == nil {
		t.Error("unknown estimator should error")
	}
}

// TestEstimatorKindsAreTheRegistry: the public constants are names only; the
// engine's estimator table is what makes them work, so the two lists must be
// the same list.
func TestEstimatorKindsAreTheRegistry(t *testing.T) {
	consts := []EstimatorKind{Trivial, Dne, DneDynamic, DneConstrained, Pmax, Safe, LpSafe, HybridMu, HybridVar, Combiner}
	if got := EstimatorKinds(); !slices.Equal(got, consts) {
		t.Fatalf("registered kinds %v, public constants %v", got, consts)
	}
}

func TestOpenTPCHAndSkyServer(t *testing.T) {
	db := OpenTPCH(0.001, 2, 1)
	if len(db.Tables()) != 8 {
		t.Errorf("tpch tables = %v", db.Tables())
	}
	res, err := db.Exec("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 10")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() == 0 {
		t.Error("expected some cheap lineitems")
	}
	sky := OpenSkyServer(2000, 3)
	res, err = sky.Exec("SELECT type, COUNT(*) FROM photoobj GROUP BY type")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no type groups")
	}
}

func TestQueryPlanAndExplain(t *testing.T) {
	db := sampleDB(t)
	b := db.Builder()
	q := db.QueryPlan(b.Scan("users"))
	out := q.Explain()
	if !strings.Contains(out, "Scan(users)") {
		t.Errorf("explain = %q", out)
	}
	res, err := q.Run()
	if err != nil || len(res.Rows) != 50 {
		t.Fatalf("plan run = %v, %v", len(res.Rows), err)
	}
	if res.Columns[0] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestFormatRow(t *testing.T) {
	db := sampleDB(t)
	res, _ := db.Exec("SELECT id, name FROM users LIMIT 1")
	s := FormatRow(res.Rows[0])
	if !strings.Contains(s, "|") {
		t.Errorf("FormatRow = %q", s)
	}
}

func TestCancelMidQuery(t *testing.T) {
	db := sampleDB(t)
	q, err := db.Query("SELECT COUNT(*) FROM events, users WHERE uid = id")
	if err != nil {
		t.Fatal(err)
	}
	var lastUpdate ProgressUpdate
	_, err = q.RunWithProgress(ProgressOptions{Every: 10}, func(u ProgressUpdate) {
		lastUpdate = u
		if u.Estimate > 0.3 {
			q.Cancel()
		}
	})
	if err != ErrCanceled {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if lastUpdate.Calls == 0 {
		t.Fatal("no progress observed before cancellation")
	}
	// The run must have stopped early: events+users+count work ≈ 451 calls.
	if lastUpdate.Estimate < 0.3 || lastUpdate.Estimate > 0.9 {
		t.Errorf("canceled around estimate %.2f", lastUpdate.Estimate)
	}
}

func TestCancelBeforeRunIsHarmless(t *testing.T) {
	db := sampleDB(t)
	q, _ := db.Query("SELECT id FROM users")
	q.Cancel() // no ctx yet: no-op
	res, err := q.Run()
	if err != nil || len(res.Rows) != 50 {
		t.Fatalf("run after pre-cancel = %v, %v", err, res)
	}
}

func TestProgressUpdateElapsedAndETA(t *testing.T) {
	db := sampleDB(t)
	q, _ := db.Query("SELECT COUNT(*) FROM events")
	sawETA := false
	_, err := q.RunWithProgress(ProgressOptions{Estimator: Pmax, Every: 20}, func(u ProgressUpdate) {
		if u.Elapsed < 0 {
			t.Error("negative elapsed")
		}
		if u.Estimate > 0 && u.ETA >= 0 {
			sawETA = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sawETA {
		t.Error("no ETA produced")
	}
}

func TestRunStatements(t *testing.T) {
	db := Open()
	r, err := db.Run("CREATE TABLE pets (name VARCHAR, age INT, weight DOUBLE, cute BOOL, born DATE)")
	if err != nil {
		t.Fatal(err)
	}
	if r.Created != "pets" {
		t.Errorf("created = %q", r.Created)
	}
	r, err = db.Run(`INSERT INTO pets VALUES
		('rex', 3, 12.5, TRUE, DATE '2021-06-01'),
		('mia', 1 + 1, 4.0, TRUE, DATE '2023-01-15'),
		('gus', NULL, 30.0, FALSE, DATE '2019-03-03');`)
	if err != nil {
		t.Fatal(err)
	}
	if r.RowsAffected != 3 {
		t.Errorf("rows affected = %d", r.RowsAffected)
	}
	r, err = db.Run("SELECT name FROM pets WHERE cute = TRUE ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if r.Query == nil || len(r.Query.Rows) != 2 || r.Query.Rows[0][0].AsString() != "mia" {
		t.Fatalf("select = %+v", r.Query)
	}
	// INSERT computed the arithmetic literal.
	r, _ = db.Run("SELECT age FROM pets WHERE name = 'mia'")
	if r.Query.Rows[0][0].AsInt() != 2 {
		t.Errorf("1+1 = %v", r.Query.Rows[0][0])
	}
}

func TestRunStatementErrors(t *testing.T) {
	db := Open()
	cases := []string{
		"DROP TABLE x",
		"CREATE TABLE t (a NOSUCHTYPE)",
		"INSERT INTO ghost VALUES (1)",
		"CREATE TABLE",
		"INSERT INTO t (1)",
	}
	for _, sql := range cases {
		if _, err := db.Run(sql); err == nil {
			t.Errorf("Run(%q) should fail", sql)
		}
	}
	db.Run("CREATE TABLE t (a INT)")
	if _, err := db.Run("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := db.Run("INSERT INTO t VALUES (a)"); err == nil {
		t.Error("column reference in VALUES should fail")
	}
}

func TestRunDropTable(t *testing.T) {
	db := Open()
	if _, err := db.Run("CREATE TABLE victim (a INT)"); err != nil {
		t.Fatal(err)
	}
	r, err := db.Run("DROP TABLE victim")
	if err != nil || r.Dropped != "victim" {
		t.Fatalf("drop = %+v, %v", r, err)
	}
	if _, err := db.Run("DROP TABLE victim"); err == nil {
		t.Error("double drop should fail")
	}
	if _, err := db.Run("SELECT a FROM victim"); err == nil {
		t.Error("select from dropped table should fail")
	}
}

func TestExplainBoundsFacade(t *testing.T) {
	db := sampleDB(t)
	q, _ := db.Query("SELECT name FROM users ORDER BY score DESC LIMIT 3")
	out := q.ExplainBounds()
	if !strings.Contains(out, "total bounds: LB=") || !strings.Contains(out, "Top(3)") {
		t.Errorf("ExplainBounds = %q", out)
	}
	// Demand capping visible: the sort (with 50 input rows available) is
	// pinned to emit exactly the LIMIT.
	if !strings.Contains(out, "Sort(1 keys)  [rows=0 done=false bounds=[3,3]]") {
		t.Errorf("sort should be demand-capped to 3:\n%s", out)
	}
}

func TestProgressUpdateNodeCounters(t *testing.T) {
	db := sampleDB(t)
	q, err := db.Query("SELECT name, COUNT(*) FROM users, events WHERE id = uid GROUP BY name")
	if err != nil {
		t.Fatal(err)
	}
	var lastNodes []NodeCount
	res, err := q.RunWithProgress(ProgressOptions{Every: 10}, func(u ProgressUpdate) {
		if len(u.Nodes) == 0 {
			t.Fatal("update has no node counters")
		}
		for i, n := range u.Nodes {
			if n.ID != int32(i) {
				t.Fatalf("node %d has id %d; updates must carry the dense id space", i, n.ID)
			}
			if n.Name == "" {
				t.Fatalf("node %d has no name", i)
			}
		}
		lastNodes = u.Nodes
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for _, n := range lastNodes {
		sum += n.Calls
	}
	if sum == 0 || sum > res.TotalCalls {
		t.Fatalf("node calls sum %d out of range (total %d)", sum, res.TotalCalls)
	}
}

// TestRunWithProgressEndsAtCompletion: a completed run's last update is the
// at-completion one, whatever the period: its Calls is the run's total.
func TestRunWithProgressEndsAtCompletion(t *testing.T) {
	db := sampleDB(t)
	for _, every := range []int64{0, 7, 10, 25, 1000} {
		q, err := db.Query("SELECT name, COUNT(*) FROM users, events WHERE id = uid GROUP BY name")
		if err != nil {
			t.Fatal(err)
		}
		var last ProgressUpdate
		res, err := q.RunWithProgress(ProgressOptions{Every: every}, func(u ProgressUpdate) { last = u })
		if err != nil {
			t.Fatal(err)
		}
		if last.Calls != res.TotalCalls {
			t.Errorf("every=%d: last update at %d calls, run total %d", every, last.Calls, res.TotalCalls)
		}
	}
}

// TestProgressUpdateIsOneInstant: an update's node counters come from the
// same ledger read as its Calls and bounds, so on every update of a grouped
// aggregate over lineitem — sampled mid-fold, the scan far ahead of the
// aggregate's output — the nodes' Calls sum to the update's Calls.
func TestProgressUpdateIsOneInstant(t *testing.T) {
	db := OpenTPCH(0.02, 1, 42)
	const rounds = 10
	updates, torn := 0, 0
	for round := 0; round < rounds; round++ {
		count := plan.AggSpec{Kind: expr.AggCountStar, As: "n"}
		q := db.QueryPlan(db.Builder().Scan("lineitem").HashAgg(0, []string{"l_suppkey"}, count))
		_, err := q.RunWithProgress(ProgressOptions{Every: 500}, func(u ProgressUpdate) {
			updates++
			var sum int64
			for _, n := range u.Nodes {
				sum += n.Calls
			}
			if sum != u.Calls {
				if torn == 0 {
					t.Errorf("round %d: nodes sum to %d calls, the update says %d", round, sum, u.Calls)
				}
				torn++
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if torn > 0 {
		t.Errorf("%d of %d updates mix two instants", torn, updates)
	}
}

// TestSpilledDatabaseAnswersLikeMemory: after SpillToDisk every statement —
// sub-selects over spilled inner tables included — returns what it returned
// from memory, in the same number of GetNext calls, while its scans decode
// only the columns it names.
func TestSpilledDatabaseAnswersLikeMemory(t *testing.T) {
	mem := OpenTPCH(0.002, 1, 42)
	paged := OpenTPCH(0.002, 1, 42)
	if err := paged.SpillToDisk(t.TempDir(), 16); err != nil {
		t.Fatal(err)
	}
	for _, sql := range []string{
		"SELECT COUNT(*) FROM orders WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 1000)",
		"SELECT COUNT(*) FROM orders WHERE NOT EXISTS (SELECT * FROM customer WHERE c_custkey = o_custkey AND c_acctbal > 1000)",
		"SELECT COUNT(*), SUM(l_extendedprice) FROM lineitem WHERE l_quantity >= 20 AND l_quantity < 30",
		"SELECT COUNT(*) FROM supplier",
		"SELECT * FROM nation ORDER BY n_nationkey LIMIT 3",
	} {
		want, err := mem.Exec(sql)
		if err != nil {
			t.Fatalf("in memory: %s: %v", sql, err)
		}
		got, err := paged.Exec(sql)
		if err != nil {
			t.Fatalf("spilled: %s: %v", sql, err)
		}
		if len(got.Rows) != len(want.Rows) || got.TotalCalls != want.TotalCalls {
			t.Fatalf("%s: spilled %d rows in %d calls, in memory %d in %d",
				sql, len(got.Rows), got.TotalCalls, len(want.Rows), want.TotalCalls)
		}
		for i := range want.Rows {
			if g, w := FormatRow(got.Rows[i]), FormatRow(want.Rows[i]); g != w {
				t.Errorf("%s: row %d: spilled %s, in memory %s", sql, i, g, w)
			}
		}
	}
	q, err := paged.Query("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 30")
	if err != nil {
		t.Fatal(err)
	}
	if out := q.Explain(); !strings.Contains(out, "Scan(lineitem)") || !strings.Contains(out, "cols=1/") {
		t.Errorf("explain of a spilled scan does not show its width:\n%s", out)
	}
}
