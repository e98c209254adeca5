package sqlprogress_test

import (
	"fmt"

	"sqlprogress"
)

// The basic flow: create tables, load rows, run SQL.
func Example() {
	db := sqlprogress.Open()
	db.CreateTable("cities", []sqlprogress.Column{
		{Name: "name", Type: sqlprogress.String},
		{Name: "pop", Type: sqlprogress.Int},
	})
	db.Insert("cities",
		[]interface{}{"Lisbon", 545000},
		[]interface{}{"Porto", 230000},
		[]interface{}{"Braga", 193000},
	)
	res, _ := db.Exec("SELECT name FROM cities WHERE pop > 200000 ORDER BY pop DESC")
	for _, row := range res.Rows {
		fmt.Println(sqlprogress.FormatRow(row))
	}
	// Output:
	// 'Lisbon'
	// 'Porto'
}

// Progress monitoring: pick an estimator from the paper's tool-kit and
// observe estimates (with hard bounds) while the query runs.
func ExampleQuery_RunWithProgress() {
	db := sqlprogress.Open()
	db.CreateTable("n", []sqlprogress.Column{{Name: "v", Type: sqlprogress.Int}})
	rows := make([][]interface{}, 1000)
	for i := range rows {
		rows[i] = []interface{}{i}
	}
	db.Insert("n", rows...)

	q, _ := db.Query("SELECT COUNT(*) FROM n WHERE v < 500")
	updates := 0
	res, _ := q.RunWithProgress(sqlprogress.ProgressOptions{
		Estimator: sqlprogress.Pmax, // never underestimates (Property 4)
		Every:     250,
	}, func(u sqlprogress.ProgressUpdate) {
		updates++
		if u.Lo > u.Estimate || u.Estimate > u.Hi {
			fmt.Println("estimate escaped its hard bounds!")
		}
	})
	fmt.Printf("count=%s after %d GetNext calls (%d progress updates)\n",
		res.Rows[0][0], res.TotalCalls, updates)
	// Output:
	// count=500 after 1002 GetNext calls (6 progress updates)
}

// Terminating a long query from its own progress callback — the paper's
// motivating scenario.
func ExampleQuery_Cancel() {
	db := sqlprogress.Open()
	db.CreateTable("big", []sqlprogress.Column{{Name: "v", Type: sqlprogress.Int}})
	rows := make([][]interface{}, 10_000)
	for i := range rows {
		rows[i] = []interface{}{i % 100}
	}
	db.Insert("big", rows...)

	q, _ := db.Query("SELECT v, COUNT(*) FROM big GROUP BY v")
	_, err := q.RunWithProgress(sqlprogress.ProgressOptions{Every: 100},
		func(u sqlprogress.ProgressUpdate) {
			if u.Hi > 0.25 { // not worth waiting for
				q.Cancel()
			}
		})
	fmt.Println(err)
	// Output:
	// exec: query canceled
}
