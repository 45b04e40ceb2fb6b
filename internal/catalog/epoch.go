package catalog

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// Epoch-versioned storage (DESIGN.md §15).
//
// The catalog separates two axes of change that used to share one version
// counter:
//
//   - Schema (catalog version): table registrations, in-place mutation.
//     Compiled artifacts bind to it — a version change invalidates them.
//   - Data tail (storage epoch): appends. Artifacts are epoch-oblivious;
//     sessions bind an epoch at execute time by pinning a Snapshot, and
//     the executor stages the snapshot's column prefixes and row counts
//     into the artifact's capacity-sized regions per run.
//
// Appends are zero-copy on both sides: registration preallocates each
// column's backing array to the frozen row capacity (CapRowsFor), so an
// append writes the new rows into the tail and publishes the new length —
// no existing row moves. A snapshot captures prefix slice headers under
// the lock; after that, readers touch only indices below the captured row
// count while writers touch only indices at or above it, so concurrent
// execute/append is race-free by address disjointness.

// capRowsMin is the smallest row capacity any served table reserves.
const capRowsMin = 1024

// CapRowsFor returns the frozen row capacity for a table loaded with n
// rows: the smallest power of two ≥ n plus 12.5% headroom, at least
// capRowsMin. A pure function of n, so a bulk-loaded table and an
// incrementally-appended one whose load sizes share a capacity class
// produce byte-identical layouts and heaps.
func CapRowsFor(n int) int {
	need := n + n/8
	c := capRowsMin
	for c < need {
		c *= 2
	}
	return c
}

// WidthFor returns the bytes per value a column region stores for a
// column holding vals: 1 when every value lies in [0, 255] and 2 when every
// value lies in [0, 65535] (LOAD8 and LOAD16 read it back zero-extended), 4
// when every value fits an int32 (LOAD32 sign-extends), else 8. A negative
// value therefore takes 4 bytes however small. A pure function of the
// values; an empty column is 1 byte wide.
func WidthFor(vals []int64) int {
	w := 1
	for _, v := range vals {
		switch {
		case uint64(v) <= 0xff:
		case uint64(v) <= 0xffff:
			w = max(w, 2)
		case v == int64(int32(v)):
			w = 4
		default:
			return 8
		}
	}
	return w
}

// reserveTail freezes the table's row capacity, reallocates each column's
// backing array to it and drops the table's record, so the next read fixes
// the widths (called under the catalog lock at Add).
func (t *Table) reserveTail() {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.rowsLocked()
	if t.rowCap < n || t.rowCap == 0 {
		t.rowCap = CapRowsFor(n)
	}
	for _, c := range t.Cols {
		if cap(c.Data) < t.rowCap {
			nd := make([]int64, len(c.Data), t.rowCap)
			copy(nd, c.Data)
			c.Data = nd
		}
	}
	t.rec = nil
}

// ColWidth returns the bytes per value (1, 2, 4 or 8) that table column i
// stores: WidthFor over its contents, frozen beside the row capacity. A
// compiled artifact reserves RowCap() × ColWidth(i) bytes for the column.
// It only changes when an append brings a value the width cannot hold —
// which, like outgrowing the capacity, bumps the catalog version — or on
// Bump.
func (t *Table) ColWidth(i int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recordLocked().widths[i]
}

// AppendResult reports one append batch.
type AppendResult struct {
	Epoch  uint64 // storage epoch the append created
	Lo, Hi int64  // appended row window [Lo, Hi)
	Grew   bool   // capacity exceeded or a column widened: version bumped
}

// Append appends row tuples (one []int64 per row, one value per column,
// dictionary codes for TStr columns) to a table, advancing the storage
// epoch and journaling the window. Within capacity it never changes the
// catalog version — compiled artifacts stay valid and cached.
func (c *Catalog) Append(table string, rows [][]int64) (AppendResult, error) {
	if len(rows) == 0 {
		return AppendResult{}, fmt.Errorf("catalog: empty append to %q", table)
	}
	t, err := c.Table(table)
	if err != nil {
		return AppendResult{}, err
	}
	ncols := len(t.Cols)
	cols := make([][]int64, ncols)
	for ri, r := range rows {
		if len(r) != ncols {
			return AppendResult{}, fmt.Errorf("catalog: append row %d to %s has %d values, table has %d columns",
				ri, table, len(r), ncols)
		}
		for ci, v := range r {
			cols[ci] = append(cols[ci], v)
		}
	}
	return c.AppendCols(table, cols)
}

// UniqueKeyError refuses an append that would give a Unique column a key
// it already holds, in the table or earlier in the same batch.
type UniqueKeyError struct {
	Table, Column string
	Key           int64
}

func (e *UniqueKeyError) Error() string {
	return fmt.Sprintf("catalog: append to %s repeats key %d of unique column %s", e.Table, e.Key, e.Column)
}

// AppendCols appends one batch in columnar form: cols[i] holds the new
// values of table column i, all the same length. Within the frozen
// capacity and widths the values land in the preallocated tail
// (zero-copy). Beyond the capacity the backing arrays grow to the next
// capacity class; a value a column's width cannot hold widens the column
// (WidthFor). Either is growth: Grew is set and the catalog version is
// bumped — the one append path that invalidates artifacts. A batch that
// would repeat a key of a Unique column fails with a *UniqueKeyError
// before anything changes: epoch, version, rows and journal stay as they
// were.
func (c *Catalog) AppendCols(table string, cols [][]int64) (AppendResult, error) {
	t, err := c.Table(table)
	if err != nil {
		return AppendResult{}, err
	}
	if len(cols) != len(t.Cols) {
		return AppendResult{}, fmt.Errorf("catalog: append to %s supplies %d columns, table has %d",
			table, len(cols), len(t.Cols))
	}
	k := 0
	for i, vals := range cols {
		if i == 0 {
			k = len(vals)
		} else if len(vals) != k {
			return AppendResult{}, fmt.Errorf("catalog: append to %s: column %s has %d values, column %s has %d",
				table, t.Cols[i].Name, len(vals), t.Cols[0].Name, k)
		}
	}
	if k == 0 {
		return AppendResult{}, fmt.Errorf("catalog: empty append to %q", table)
	}

	// Epoch, version and journal updates happen under the catalog lock;
	// the data write happens under the table lock inside it. Lock order
	// (catalog → table) matches Add and Snapshot.
	c.mu.Lock()
	defer c.mu.Unlock()
	t.mu.Lock()
	if err := t.checkKeysLocked(cols); err != nil {
		t.mu.Unlock()
		return AppendResult{}, err
	}
	prev := t.recordLocked()
	lo := int64(prev.rows)
	hi := lo + int64(k)
	grew := false
	if int(hi) > t.rowCapLocked() {
		t.rowCap = CapRowsFor(int(hi))
		grew = true
	}
	ws, wider := widened(prev.widths, cols)
	grew = grew || wider
	keyMax := slices.Clone(prev.keyMax)
	for i, col := range t.Cols {
		if cap(col.Data) < t.rowCap {
			nd := make([]int64, len(col.Data), t.rowCap)
			copy(nd, col.Data)
			col.Data = nd
		}
		col.Data = append(col.Data, cols[i]...)
		if col.Unique {
			keyMax[i] = max(keyMax[i], slices.Max(cols[i]))
		}
	}
	t.rec = t.newRecord(int(hi), ws, keyMax)
	t.mu.Unlock()

	c.epoch++
	if grew {
		c.version++
	}
	ev := core.EpochEvent{Epoch: c.epoch, Table: table, Lo: lo, Hi: hi, Grew: grew}
	c.journal = append(c.journal, ev)
	return AppendResult{Epoch: ev.Epoch, Lo: lo, Hi: hi, Grew: grew}, nil
}

// checkKeysLocked returns a *UniqueKeyError when cols would repeat a key of
// a Unique column. A strictly increasing batch above the column's maximum
// is accepted without allocating; any other batch is checked against a
// set of the column's keys. Caller holds t.mu.Lock.
func (t *Table) checkKeysLocked(cols [][]int64) error {
	keyMax := t.recordLocked().keyMax
	for i, c := range t.Cols {
		if !c.Unique {
			continue
		}
		prev, rising := keyMax[i], true
		for _, v := range cols[i] {
			if v <= prev {
				rising = false
				break
			}
			prev = v
		}
		if rising {
			continue
		}
		seen := make(map[int64]struct{}, len(c.Data)+len(cols[i]))
		for _, v := range c.Data {
			seen[v] = struct{}{}
		}
		for _, v := range cols[i] {
			if _, dup := seen[v]; dup {
				return &UniqueKeyError{Table: t.Name, Column: c.Name, Key: v}
			}
			seen[v] = struct{}{}
		}
	}
	return nil
}

// widened returns ws with each column widened to hold its new values, and
// whether any column widened; ws itself is never written, and is returned
// when none widens.
func widened(ws []int, cols [][]int64) ([]int, bool) {
	var out []int
	for i, vals := range cols {
		if w := WidthFor(vals); w > ws[i] {
			if out == nil {
				out = slices.Clone(ws)
			}
			out[i] = w
		}
	}
	if out == nil {
		return ws, false
	}
	return out, true
}

// TableView is the immutable per-table face of a snapshot: the first Rows
// rows of every column, captured as slice-header prefixes (zero-copy),
// with the record of those rows (the widths at that moment, statistics and
// zone map). Its zone map and shards are pure functions of (table
// contents, Rows) — never of the snapshot, session, worker count, or shard
// count.
type TableView struct {
	Table *Table
	Rows  int
	rec   *record
}

// View captures an immutable view of the table's current rows.
func (t *Table) View() *TableView {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.viewLocked()
}

func (t *Table) viewLocked() *TableView {
	r := t.recordLocked()
	return &TableView{Table: t, Rows: r.rows, rec: r}
}

// Col returns the view's data prefix for table column i.
func (v *TableView) Col(i int) []int64 { return v.rec.cols[i] }

// ColWidth returns the width of table column i when the view was taken:
// every value of Col(i) fits it.
func (v *TableView) ColWidth(i int) int { return v.rec.widths[i] }

// ColByName returns the view's data prefix for a named column, or nil.
func (v *TableView) ColByName(name string) []int64 {
	if i := v.Table.ColIndex(name); i >= 0 {
		return v.rec.cols[i]
	}
	return nil
}

// Zones returns the view's zone map, built once per record on first read
// and held by every view of the same rows; a pinned view's map lives as
// long as the view.
func (v *TableView) Zones() []Zone { return v.rec.zoneMap() }

// Shards partitions the view's rows into n contiguous zone-aligned shards
// (see shardsOf).
func (v *TableView) Shards(n int) []Shard { return shardsOf(v.Zones(), n) }

// Snapshot is an epoch-stamped, immutable view of every table: what one
// execution binds against. Concurrent appends land in rows the snapshot
// does not expose.
type Snapshot struct {
	Epoch   uint64
	Version uint64
	views   map[string]*TableView
}

// Snapshot captures the current epoch's view of every table.
func (c *Catalog) Snapshot() *Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := &Snapshot{Epoch: c.epoch, Version: c.version, views: make(map[string]*TableView, len(c.tables))}
	for name, t := range c.tables {
		t.mu.Lock()
		s.views[name] = t.viewLocked()
		t.mu.Unlock()
	}
	return s
}

// View returns the snapshot's view of a table, or nil if the table was
// registered after the snapshot was taken.
func (s *Snapshot) View(name string) *TableView { return s.views[name] }
