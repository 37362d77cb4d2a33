// Package madis implements the relational backend the OBDA layer plugs
// into, modeled on MadIS [Chronis et al., EDBT 2016]: an extensible
// in-memory relational engine whose FROM clause accepts user-defined
// virtual table functions — the mechanism the paper uses to expose OPeNDAP
// streams as SQL tables ("the MadIS operator Opendap retrieves this data
// and populates a virtual table on-the-fly", §4).
//
// The SQL subset covers what R2RML-style mapping sources need:
//
//	SELECT col, ... FROM <table> [WHERE cond [AND cond]...] [ORDER BY col [DESC]] [LIMIT n]
//	SELECT ... FROM (ordered <vtable> arg, arg, ...) WHERE ...
//
// with comparison predicates over numbers and strings.
package madis

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Value is a cell value: string, float64 or nil (SQL NULL).
type Value any

// Row is one table row.
type Row []Value

// Table is a named relation. A table is complete before it is registered
// with CreateTable or returned by a virtual table function and is never
// mutated afterwards (replace it instead), so a relation's content is
// identified by its pointer.
type Table struct {
	Name string
	Cols []string
	Rows []Row
}

// ColIndex returns the index of a column by (case-insensitive) name.
func (t *Table) ColIndex(name string) (int, bool) {
	for i, c := range t.Cols {
		if strings.EqualFold(c, name) {
			return i, true
		}
	}
	return 0, false
}

// VirtualTable is a user-defined table function: it receives the raw
// argument strings from the FROM clause and produces a relation.
type VirtualTable func(args []string) (*Table, error)

// DB is a collection of named tables and registered virtual table
// functions. It is safe for concurrent reads; registration and table
// creation must happen before querying from multiple goroutines.
type DB struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	vtables map[string]VirtualTable
}

// NewDB returns an empty database.
func NewDB() *DB {
	return &DB{tables: map[string]*Table{}, vtables: map[string]VirtualTable{}}
}

// CreateTable registers a table (replacing an existing one of the same
// name).
func (db *DB) CreateTable(t *Table) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.tables[strings.ToLower(t.Name)] = t
}

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// RegisterVirtualTable installs a virtual table function under a name
// usable in FROM clauses.
func (db *DB) RegisterVirtualTable(name string, fn VirtualTable) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.vtables[strings.ToLower(name)] = fn
}

// virtualTable returns the named virtual table function.
func (db *DB) virtualTable(name string) (VirtualTable, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	fn, ok := db.vtables[strings.ToLower(name)]
	return fn, ok
}

// Query parses and evaluates a SQL statement.
func (db *DB) Query(sql string) (*Table, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return nil, err
	}
	base, err := stmt.Base()
	if err != nil {
		return nil, err
	}
	return stmt.Over(base)
}

// Stmt is a parsed statement bound to its database. It holds no
// per-execution state, so one Stmt may be executed from many goroutines.
type Stmt struct {
	db  *DB
	sel *selectStmt
}

// Prepare parses a SQL statement once, for repeated execution.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	sel, err := parseSQL(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, sel: sel}, nil
}

// Base resolves the statement's single FROM relation: the stored table
// as registered now, or one call of the virtual table function. Tables
// are immutable once registered or returned, so the statement and the
// pointer Base returns together determine what Over answers.
func (st *Stmt) Base() (*Table, error) {
	stmt := st.sel
	if stmt.fromVTable != "" {
		fn, ok := st.db.virtualTable(stmt.fromVTable)
		if !ok {
			return nil, fmt.Errorf("madis: unknown virtual table %q", stmt.fromVTable)
		}
		t, err := fn(stmt.vtableArgs)
		if err != nil {
			return nil, fmt.Errorf("madis: virtual table %s: %v", stmt.fromVTable, err)
		}
		return t, nil
	}
	t, ok := st.db.Table(stmt.fromTable)
	if !ok {
		return nil, fmt.Errorf("madis: no table %q", stmt.fromTable)
	}
	return t, nil
}

// Over filters, orders and projects base, the relation Base resolved.
func (st *Stmt) Over(base *Table) (*Table, error) {
	stmt := st.sel

	// Resolve filter columns.
	type boundCond struct {
		col int
		op  string
		// rhs is a constant or another column (rhsCol >= 0).
		rhs    Value
		rhsCol int
	}
	conds := make([]boundCond, 0, len(stmt.where))
	for _, c := range stmt.where {
		ci, ok := base.ColIndex(c.col)
		if !ok {
			return nil, fmt.Errorf("madis: unknown column %q", c.col)
		}
		bc := boundCond{col: ci, op: c.op, rhs: c.value, rhsCol: -1}
		if c.rhsCol != "" {
			ri, ok := base.ColIndex(c.rhsCol)
			if !ok {
				return nil, fmt.Errorf("madis: unknown column %q", c.rhsCol)
			}
			bc.rhsCol = ri
		}
		conds = append(conds, bc)
	}

	// Resolve projection.
	var outCols []string
	var proj []int
	if len(stmt.cols) == 1 && stmt.cols[0] == "*" {
		outCols = base.Cols
		proj = make([]int, len(base.Cols))
		for i := range proj {
			proj[i] = i
		}
	} else {
		for _, c := range stmt.cols {
			ci, ok := base.ColIndex(c)
			if !ok {
				return nil, fmt.Errorf("madis: unknown column %q", c)
			}
			outCols = append(outCols, base.Cols[ci])
			proj = append(proj, ci)
		}
	}

	// Filter on the base relation (ORDER BY may reference non-projected
	// columns, so ordering also happens before projection).
	var kept []Row
	for _, row := range base.Rows {
		keep := true
		for _, c := range conds {
			rhs := c.rhs
			if c.rhsCol >= 0 {
				rhs = row[c.rhsCol]
			}
			if !compareValues(row[c.col], c.op, rhs) {
				keep = false
				break
			}
		}
		if keep {
			kept = append(kept, row)
		}
	}

	if stmt.orderBy != "" {
		oi, ok := base.ColIndex(stmt.orderBy)
		if !ok {
			return nil, fmt.Errorf("madis: ORDER BY unknown column %q", stmt.orderBy)
		}
		sort.SliceStable(kept, func(i, j int) bool {
			if stmt.orderDesc {
				return valueLess(kept[j][oi], kept[i][oi])
			}
			return valueLess(kept[i][oi], kept[j][oi])
		})
	}
	if stmt.limit >= 0 && stmt.limit < len(kept) {
		kept = kept[:stmt.limit]
	}

	out := &Table{Name: "result", Cols: outCols}
	for _, row := range kept {
		nr := make(Row, len(proj))
		for i, ci := range proj {
			nr[i] = row[ci]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// compareValues applies op between two cell values. NULL never compares
// true.
func compareValues(l Value, op string, r Value) bool {
	if l == nil || r == nil {
		return false
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		switch op {
		case "=":
			return lf == rf
		case "!=", "<>":
			return lf != rf
		case "<":
			return lf < rf
		case "<=":
			return lf <= rf
		case ">":
			return lf > rf
		case ">=":
			return lf >= rf
		}
		return false
	}
	ls, rs := toString(l), toString(r)
	switch op {
	case "=":
		return ls == rs
	case "!=", "<>":
		return ls != rs
	case "<":
		return ls < rs
	case "<=":
		return ls <= rs
	case ">":
		return ls > rs
	case ">=":
		return ls >= rs
	}
	return false
}

func valueLess(l, r Value) bool {
	if l == nil {
		return r != nil
	}
	if r == nil {
		return false
	}
	lf, lok := toFloat(l)
	rf, rok := toFloat(r)
	if lok && rok {
		return lf < rf
	}
	return toString(l) < toString(r)
}

func toFloat(v Value) (float64, bool) {
	f, ok := v.(float64)
	return f, ok
}

func toString(v Value) string {
	switch t := v.(type) {
	case string:
		return t
	case float64:
		return fmt.Sprintf("%g", t)
	case nil:
		return ""
	}
	return fmt.Sprintf("%v", v)
}
