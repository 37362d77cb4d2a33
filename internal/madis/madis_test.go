package madis

import (
	"fmt"
	"sync"
	"testing"
)

func peopleTable() *Table {
	return &Table{
		Name: "people",
		Cols: []string{"id", "name", "age", "city"},
		Rows: []Row{
			{"p1", "Alice", 30.0, "Paris"},
			{"p2", "Bob", 25.0, "Athens"},
			{"p3", "Carol", 35.0, "Paris"},
			{"p4", "Dave", nil, "Oslo"},
		},
	}
}

func TestSelectAll(t *testing.T) {
	db := NewDB()
	db.CreateTable(peopleTable())
	res, err := db.Query("SELECT * FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || len(res.Cols) != 4 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Cols))
	}
}

func TestProjection(t *testing.T) {
	db := NewDB()
	db.CreateTable(peopleTable())
	res, err := db.Query("SELECT name, city FROM people")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 || res.Cols[0] != "name" {
		t.Fatalf("cols = %v", res.Cols)
	}
	if res.Rows[0][0] != "Alice" || res.Rows[0][1] != "Paris" {
		t.Fatalf("row0 = %v", res.Rows[0])
	}
	if _, err := db.Query("SELECT nope FROM people"); err == nil {
		t.Error("unknown column must error")
	}
}

func TestWhere(t *testing.T) {
	db := NewDB()
	db.CreateTable(peopleTable())
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT name FROM people WHERE age > 26", 2},
		{"SELECT name FROM people WHERE age >= 25 AND age <= 30", 2},
		{"SELECT name FROM people WHERE city = 'Paris'", 2},
		{"SELECT name FROM people WHERE city != 'Paris'", 2}, // NULL age row has city Oslo
		{"SELECT name FROM people WHERE age > 100", 0},
		{"SELECT name FROM people WHERE name < 'C'", 2},
	}
	for _, c := range cases {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Errorf("%q: %v", c.sql, err)
			continue
		}
		if len(res.Rows) != c.want {
			t.Errorf("%q: %d rows, want %d", c.sql, len(res.Rows), c.want)
		}
	}
	// NULL never matches
	res, _ := db.Query("SELECT name FROM people WHERE age < 100")
	if len(res.Rows) != 3 {
		t.Errorf("NULL age must not match: %v", res.Rows)
	}
}

func TestWhereColumnToColumn(t *testing.T) {
	db := NewDB()
	db.CreateTable(&Table{Name: "t", Cols: []string{"a", "b"},
		Rows: []Row{{1.0, 2.0}, {3.0, 3.0}, {5.0, 4.0}}})
	res, err := db.Query("SELECT a FROM t WHERE a < b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != 1.0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	db := NewDB()
	db.CreateTable(peopleTable())
	res, err := db.Query("SELECT name FROM people WHERE age > 0 ORDER BY age DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "Carol" || res.Rows[1][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res, err = db.Query("SELECT name FROM people ORDER BY name LIMIT 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestVirtualTable(t *testing.T) {
	db := NewDB()
	db.RegisterVirtualTable("range", func(args []string) (*Table, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("range takes 1 argument")
		}
		n := 0
		fmt.Sscanf(args[0], "%d", &n)
		tb := &Table{Name: "range", Cols: []string{"i", "sq"}}
		for i := 0; i < n; i++ {
			tb.Rows = append(tb.Rows, Row{float64(i), float64(i * i)})
		}
		return tb, nil
	})
	res, err := db.Query("SELECT i, sq FROM (range 5) WHERE sq > 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 { // 4, 9, 16
		t.Fatalf("rows = %v", res.Rows)
	}
	// with "ordered" keyword and url: prefix like the paper's Listing 2
	res, err = db.Query("SELECT i FROM (ordered range url:5) WHERE i >= 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("ordered rows = %v", res.Rows)
	}
	if _, err := db.Query("SELECT x FROM (nosuch 1)"); err == nil {
		t.Error("unknown vtable must error")
	}
	if _, err := db.Query("SELECT i FROM (range)"); err == nil {
		t.Error("vtable arg error must propagate")
	}
}

func TestListing2SourceShape(t *testing.T) {
	// The exact FROM/WHERE shape of the paper's Listing 2 mapping source.
	db := NewDB()
	db.RegisterVirtualTable("opendap", func(args []string) (*Table, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("opendap takes url and window, got %v", args)
		}
		return &Table{
			Name: "opendap",
			Cols: []string{"id", "LAI", "ts", "loc"},
			Rows: []Row{
				{"o1", 3.5, "2018-06-01T00:00:00Z", "POINT (2.25 48.86)"},
				{"o2", -0.5, "2018-06-01T00:00:00Z", "POINT (2.26 48.87)"},
				{"o3", 0.0, "2018-06-01T00:00:00Z", "POINT (2.27 48.88)"},
			},
		}, nil
	})
	sql := `SELECT id, LAI , ts, loc
FROM (ordered opendap
url:https://analytics.ramani.ujuizi.com/thredds/dodsC/Copernicus-Land-timeseries-global-LAI%29/readdods/LAI/, 10)
WHERE LAI > 0`
	res, err := db.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "o1" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Cols) != 4 {
		t.Fatalf("cols = %v", res.Cols)
	}
}

func TestParseErrors(t *testing.T) {
	db := NewDB()
	db.CreateTable(peopleTable())
	bad := []string{
		"DELETE FROM people",
		"SELECT name",
		"SELECT FROM people",
		"SELECT name FROM",
		"SELECT name FROM people WHERE",
		"SELECT name FROM people WHERE age",
		"SELECT name FROM people LIMIT x",
		"SELECT name FROM people ORDER age",
		"SELECT name FROM nosuch",
		"SELECT name FROM (unclosed",
		"SELECT name FROM people trailing garbage",
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := NewDB()
	db.CreateTable(peopleTable())
	res, err := db.Query("select NAME from PEOPLE where AGE > 26 order by NAME limit 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

// A prepared statement is parsed once; Base resolves the FROM relation as
// it is now (a stored table by pointer, a virtual table by one call) and
// Over answers what Query answers.
func TestPreparedStatement(t *testing.T) {
	db := NewDB()
	people := peopleTable()
	db.CreateTable(people)
	stmt, err := db.Prepare("SELECT name FROM people WHERE city = 'Paris' ORDER BY age DESC")
	if err != nil {
		t.Fatal(err)
	}
	base, err := stmt.Base()
	if err != nil || base != people {
		t.Fatalf("Base = %p, %v; want the registered table %p", base, err, people)
	}
	got, err := stmt.Over(base)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := db.Query("SELECT name FROM people WHERE city = 'Paris' ORDER BY age DESC")
	if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) || fmt.Sprint(got.Rows) != "[[Carol] [Alice]]" {
		t.Fatalf("Over = %v, Query = %v", got.Rows, want.Rows)
	}
	if len(people.Rows) != 4 || people.Rows[0][1] != "Alice" {
		t.Fatal("Over mutated its base")
	}

	// Replacing the table is what changes the relation.
	replaced := &Table{Name: "people", Cols: people.Cols, Rows: people.Rows[:1]}
	db.CreateTable(replaced)
	if base, _ := stmt.Base(); base != replaced {
		t.Fatal("Base must resolve the table registered now")
	}

	calls := 0
	db.RegisterVirtualTable("gen", func(args []string) (*Table, error) {
		calls++
		return &Table{Name: "gen", Cols: []string{"n"}, Rows: []Row{{float64(calls)}}}, nil
	})
	vstmt, err := db.Prepare("SELECT n FROM (gen 1)")
	if err != nil {
		t.Fatal(err)
	}
	for want := 1; want <= 2; want++ {
		base, err := vstmt.Base()
		if err != nil || calls != want {
			t.Fatalf("Base call %d: %d virtual table calls, %v", want, calls, err)
		}
		if res, _ := vstmt.Over(base); res.Rows[0][0] != float64(want) {
			t.Fatalf("Over = %v", res.Rows)
		}
	}

	if _, err := db.Prepare("DELETE FROM people"); err == nil {
		t.Error("Prepare must report parse errors")
	}
	missing, err := db.Prepare("SELECT x FROM missing")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := missing.Base(); err == nil {
		t.Error("Base must report an unknown table")
	}
	badCol, _ := db.Prepare("SELECT nope FROM people")
	if _, err := badCol.Over(replaced); err == nil {
		t.Error("Over must report an unknown column")
	}
}

// One statement and one base relation serve many goroutines (make race).
func TestStmtSharedAcrossGoroutines(t *testing.T) {
	db := NewDB()
	db.CreateTable(peopleTable())
	stmt, err := db.Prepare("SELECT name FROM people WHERE age > 26 ORDER BY name DESC")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50 && errs[g] == nil; i++ {
				base, err := stmt.Base()
				if err != nil {
					errs[g] = err
					return
				}
				if res, err := stmt.Over(base); err != nil || fmt.Sprint(res.Rows) != "[[Carol] [Alice]]" {
					errs[g] = fmt.Errorf("Over = %v, %v", res, err)
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
