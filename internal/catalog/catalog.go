// Package catalog holds schemas and in-memory columnar tables. All values
// are int64: dates are day numbers, strings are dictionary-encoded at load
// time (see DESIGN.md §6) — keeping the generated code and the simulated
// machine purely integer, like the paper's examples. A column is stored at
// the narrowest width that holds all of its values — 1 byte (every value in
// [0, 255]), 2 (every value in [0, 65535]), 4 (int32) or 8 — a pure
// function of its contents, frozen
// beside the table's row capacity (Table.ColWidth, TableView.ColWidth);
// the simulated machine loads it back into an int64 register.
package catalog

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
)

// Type is a column type.
type Type uint8

const (
	TInt Type = iota
	TDate
	TStr // dictionary-encoded string
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TDate:
		return "date"
	case TStr:
		return "str"
	}
	return "?"
}

// Dict is a string dictionary for one TStr column. It is safe for
// concurrent use: streaming appends may add codes (ID) while sessions
// resolve bound parameters (Lookup) and render results (String).
type Dict struct {
	mu    sync.RWMutex
	byID  []string
	byStr map[string]int64
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{byStr: make(map[string]int64)} }

// ID returns the code for s, adding it if new.
func (d *Dict) ID(s string) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.byStr[s]; ok {
		return id
	}
	id := int64(len(d.byID))
	d.byID = append(d.byID, s)
	d.byStr[s] = id
	return id
}

// Lookup returns the code for s and whether it exists.
func (d *Dict) Lookup(s string) (int64, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byStr[s]
	return id, ok
}

// EncodeString encodes a string literal into the int64 value space of a
// column of type t with dictionary d — the one rule the planner, bound
// parameters and view matching share: a date parses to its day number, a
// string resolves to its dictionary code, and a string the dictionary does
// not hold (or any string when there is no dictionary) encodes as -1, a
// code no row carries.
func EncodeString(t Type, d *Dict, s string) (int64, error) {
	switch t {
	case TDate:
		return ParseDate(s)
	case TStr:
		if d != nil {
			if id, ok := d.Lookup(s); ok {
				return id, nil
			}
		}
		return -1, nil
	default:
		return 0, fmt.Errorf("catalog: string literal %q compared with %s column", s, t)
	}
}

// String returns the string for a code.
func (d *Dict) String(id int64) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id < 0 || id >= int64(len(d.byID)) {
		return fmt.Sprintf("<dict:%d>", id)
	}
	return d.byID[id]
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

// Column is one column of a table.
type Column struct {
	Name string
	Type Type
	Data []int64
	Dict *Dict // for TStr columns

	// Unique marks primary-key-like columns: no two rows hold the same
	// value. It enables group-join fusion, tight hash-table sizing and a
	// join probe that leaves its hash chain at the first match, so the
	// catalog keeps it true: an append that would repeat a key is refused
	// with a *UniqueKeyError. The loader must supply distinct values.
	Unique bool
}

// Stats summarizes a column for the optimizer.
type Stats struct {
	Min, Max int64
	Distinct int // estimate, capped at DistinctCap (exact for a Unique column)
}

// DistinctCap caps the values Stats.Distinct counts: a count at the cap
// says only that the column holds at least that many.
const DistinctCap = 1 << 16

// seenSets recycles computeStats' distinct-value sets: an append makes the
// next compile recompute the statistics of every column it reads, and a
// recycled set allocates nothing once it has grown.
var seenSets = sync.Pool{New: func() any { return make(map[int64]struct{}, 1024) }}

func computeStats(data []int64, unique bool) Stats {
	s := Stats{}
	if len(data) == 0 {
		return s
	}
	s.Min, s.Max = data[0], data[0]
	seen := seenSets.Get().(map[int64]struct{})
	defer func() {
		clear(seen)
		seenSets.Put(seen)
	}()
	for _, v := range data {
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
		if len(seen) < DistinctCap {
			seen[v] = struct{}{}
		}
	}
	s.Distinct = len(seen)
	if unique {
		s.Distinct = len(data)
	}
	return s
}

// Table is a named columnar table.
//
// Concurrency: once registered with a Catalog, a table's row set may only
// grow through Catalog.Append*, which serializes writers under mu. Readers
// that need a consistent row set take a TableView (View / Catalog.Snapshot)
// — an immutable prefix of the columns captured under the lock — and are
// then free of the lock entirely: appends land at row indices the view
// never touches, so view reads and tail writes are disjoint by address.
// Direct Data mutation (loaders, tests) remains legal only while the table
// is not being served concurrently.
type Table struct {
	Name string
	Cols []*Column

	mu     sync.Mutex
	rowCap int     // frozen row capacity of the column backing arrays
	rec    *record // what the catalog derives from the current rows
}

// record is what the catalog derives from a table's first rows rows. Under
// append-only growth that prefix never changes, so neither does the record:
// widths and Unique maxima are fixed when it is made, and each column's
// statistics and the zone map are computed once, on first read. A
// TableView holds the record of its rows; Add and Bump drop the table's,
// and AppendCols makes the next one from the previous one.
type record struct {
	rows   int
	cols   [][]int64 // each column's prefix [:rows:rows]
	widths []int     // WidthFor of each prefix
	keyMax []int64   // each Unique column's largest value, else math.MinInt64

	stats     []lazyStats
	zonesOnce sync.Once
	zones     []Zone
}

type lazyStats struct {
	once sync.Once
	s    Stats
}

// newRecord records the first rows rows of t's columns. Caller holds t.mu.
func (t *Table) newRecord(rows int, widths []int, keyMax []int64) *record {
	r := &record{rows: rows, cols: make([][]int64, len(t.Cols)), widths: widths, keyMax: keyMax,
		stats: make([]lazyStats, len(t.Cols))}
	for i, c := range t.Cols {
		r.cols[i] = c.Data[:rows:rows]
	}
	return r
}

// recordLocked returns the record of the table's current rows, making it
// afresh when there is none or when direct Data writes (loaders, tests)
// changed the row or column count since. Caller holds t.mu.
func (t *Table) recordLocked() *record {
	rows := t.rowsLocked()
	if r := t.rec; r != nil && r.rows == rows && len(r.cols) == len(t.Cols) {
		return r
	}
	ws, ks := make([]int, len(t.Cols)), make([]int64, len(t.Cols))
	for i, c := range t.Cols {
		ws[i], ks[i] = WidthFor(c.Data[:rows]), math.MinInt64
		if c.Unique && rows > 0 {
			ks[i] = slices.Max(c.Data[:rows])
		}
	}
	t.rec = t.newRecord(rows, ws, ks)
	return t.rec
}

// stat returns column i's statistics, computed on first read.
func (r *record) stat(i int, unique bool) Stats {
	s := &r.stats[i]
	s.once.Do(func() { s.s = computeStats(r.cols[i], unique) })
	return s.s
}

// zoneMap returns the record's zone map, built on first read. The result
// is shared — callers must not mutate it.
func (r *record) zoneMap() []Zone {
	r.zonesOnce.Do(func() { r.zones = buildZones(r.cols, int64(r.rows)) })
	return r.zones
}

// NewTable creates an empty table.
func NewTable(name string) *Table { return &Table{Name: name} }

// AddCol appends a column and returns it.
func (t *Table) AddCol(name string, typ Type) *Column {
	c := &Column{Name: name, Type: typ}
	if typ == TStr {
		c.Dict = NewDict()
	}
	t.Cols = append(t.Cols, c)
	return c
}

// Col returns the named column, or nil.
func (t *Table) Col(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ColIndex returns the position of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Rows returns the row count.
func (t *Table) Rows() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowsLocked()
}

func (t *Table) rowsLocked() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0].Data)
}

// RowCap returns the table's row capacity: the size compiled artifacts
// reserve for each column region, so epochs within capacity bind to the
// same layout and appends never force a recompile. It is frozen when the
// table is registered (CapRowsFor over the load-time row count) and only
// changes when an append outgrows it — which reallocates the backing
// arrays and bumps the catalog version, the documented artifact-
// invalidation escape hatch.
func (t *Table) RowCap() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rowCapLocked()
}

func (t *Table) rowCapLocked() int {
	if n := t.rowsLocked(); t.rowCap < n {
		// Self-heal after direct Data mutation past capacity (loaders);
		// Catalog.Append maintains rowCap itself.
		t.rowCap = CapRowsFor(n)
	}
	return t.rowCap
}

// ColStats returns statistics for a column over the table's current rows:
// an append makes the next record, so the optimizer always estimates
// against the current epoch's data while repeated plans at one epoch pay
// for the scan once.
func (t *Table) ColStats(name string) Stats {
	t.mu.Lock()
	i := t.ColIndex(name)
	if i < 0 {
		t.mu.Unlock()
		return Stats{}
	}
	r, unique := t.recordLocked(), t.Cols[i].Unique
	t.mu.Unlock()
	// Computed outside the lock: the prefix is immutable under append-only
	// growth, and concurrent appends must not stall on a stats scan.
	return r.stat(i, unique)
}

// Validate checks that all columns have equal length.
func (t *Table) Validate() error {
	n := t.Rows()
	for _, c := range t.Cols {
		if len(c.Data) != n {
			return fmt.Errorf("catalog: table %s column %s has %d rows, want %d", t.Name, c.Name, len(c.Data), n)
		}
	}
	return nil
}

// Catalog is a set of tables plus the storage-epoch state: a monotonic
// epoch counter bumped by every append, the append journal
// (core.EpochEvent lineage), and the per-table row counts at registration
// (the journal's replay base).
type Catalog struct {
	mu      sync.Mutex
	tables  map[string]*Table
	version uint64
	epoch   uint64
	base    map[string]int64
	journal []core.EpochEvent
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{tables: make(map[string]*Table), base: make(map[string]int64)}
}

// Add registers a table; it replaces an existing table of the same name.
// Every registration bumps the catalog version, so compiled-query caches
// keyed by it shed artifacts built against the old schema. Registration
// freezes the table's row capacity (CapRowsFor) and reallocates the
// column backing arrays to it, so subsequent appends land in the
// preallocated tail without copying a single existing row.
func (c *Catalog) Add(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t
	c.base[t.Name] = int64(t.Rows())
	c.version++
	t.reserveTail()
}

// Remove drops a table from the catalog and bumps the version. The
// registration base and any journal entries for the name are retained:
// the epoch journal is append-only lineage, and replay-based checkers
// skip tables the catalog no longer holds. Removing an unknown name is
// a no-op (no version bump).
func (c *Catalog) Remove(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[name]; !ok {
		return
	}
	delete(c.tables, name)
	c.version++
}

// Version identifies the catalog's current schema state. It changes on
// every Add, on explicit Bump calls, and when an append outgrows a table's
// row capacity or widens one of its columns; cached compilation artifacts are only valid for the
// version they were compiled under. Appends within capacity do NOT change
// it — that is the qcache key contract that keeps compiled artifacts warm
// under streaming ingest.
func (c *Catalog) Version() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.version
}

// Bump invalidates the current version without a schema change — for
// callers that mutate table data *in place* (compiled artifacts bake
// column base addresses into their memory layout, and a table's record
// describes the old values). It drops every table's record, so the next
// read derives widths, statistics and zone maps from the new values. A
// view taken before the mutation keeps its old record: direct mutation is
// legal only while the table is not served. Appends never need it: they go
// through Append/AppendCols, which advance the epoch instead.
func (c *Catalog) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.version++
	for _, t := range c.tables {
		t.mu.Lock()
		t.rec = nil
		t.mu.Unlock()
	}
}

// Epoch returns the current storage epoch: 0 after load, +1 per append.
func (c *Catalog) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// EpochJournal returns a copy of the append journal.
func (c *Catalog) EpochJournal() []core.EpochEvent {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.EpochEvent(nil), c.journal...)
}

// BaseRows returns each table's row count at registration — the replay
// base for the epoch journal.
func (c *Catalog) BaseRows() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.base))
	for k, v := range c.base {
		out[k] = v
	}
	return out
}

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.Lock()
	t, ok := c.tables[name]
	c.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("catalog: unknown table %q", name)
	}
	return t, nil
}

// Names returns all table names, sorted.
func (c *Catalog) Names() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
