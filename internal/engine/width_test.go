package engine

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/catalog"
	"repro/internal/ref"
)

// widthRow is row i of n of the width-boundary table w: its columns
// straddle every width boundary, and the values that force a column wider
// sit in the last rows, so a table grown by appends widens on the way.
// Columns: w_k (group key, 1 byte), w_u8 (0..255, 1 byte), w_i32 (both
// int32 extremes, 4 bytes), w_neg (small negatives, 4 bytes), w_big
// (past int32, 8 bytes), w_u16 (0..65535, 2 bytes).
func widthRow(i, n int) []int64 {
	r := []int64{int64(i % 8), int64(i % 200), int64(i*7919%1000 - 500*(i%2)), int64(i % 4), int64(i), int64(i % 251)}
	switch n - i {
	case 1:
		r[1], r[2], r[3], r[4], r[5] = 255, math.MaxInt32, -3, 1<<40, 65535
	case 2:
		r[1], r[2], r[3], r[4], r[5] = 0, math.MinInt32, -1, -(1 << 40), 0
	case 3:
		r[2], r[4], r[5] = math.MaxInt32-1, math.MaxInt32+1, 256
	}
	return r
}

var widthCols = []string{"w_k", "w_u8", "w_i32", "w_neg", "w_big", "w_u16"}

// widthCatalog holds w's first rows of n, and d, a dimension keyed like
// w_k but 4 bytes wide (one key is 1000).
func widthCatalog(rows, n int) *catalog.Catalog {
	c := catalog.New()
	w := catalog.NewTable("w")
	for _, name := range widthCols {
		w.AddCol(name, catalog.TInt)
	}
	for i := 0; i < rows; i++ {
		for j, v := range widthRow(i, n) {
			w.Cols[j].Data = append(w.Cols[j].Data, v)
		}
	}
	c.Add(w)
	d := catalog.NewTable("d")
	dk, dv := d.AddCol("d_k", catalog.TInt), d.AddCol("d_v", catalog.TInt)
	for k := int64(0); k < 8; k++ {
		dk.Data = append(dk.Data, k)
		dv.Data = append(dv.Data, 250+k%3)
	}
	dk.Data = append(dk.Data, 1000)
	dv.Data = append(dv.Data, 7)
	c.Add(d)
	return c
}

// widthQueries read every column of w at its width: as group keys,
// aggregate inputs, filter operands at the boundaries, and a join key
// matched against a wider column.
var widthQueries = []string{
	"select w_k, sum(w_u8), sum(w_i32), sum(w_neg), sum(w_big), sum(w_u16), count(*) from w group by w_k order by w_k",
	"select count(*), sum(w_i32) from w where w_u8 >= 199 and w_i32 < 0",
	"select min(w_i32), max(w_i32), min(w_neg), max(w_big), min(w_big), max(w_u16) from w where w_neg < 1",
	"select w_k, count(*), min(w_u16) from w where w_u16 >= 255 and w_u16 <= 65535 group by w_k order by w_k",
	"select w_u8, count(*) from w where w_big > 2147483647 or w_big < -2147483648 group by w_u8 order by w_u8",
	"select d_v, count(*), sum(w_i32) from w, d where w_k = d_k group by d_v order by d_v",
}

const widthRows = 3000

// widthSource runs widthQueries over the width-boundary catalog.
func widthSource() source {
	src := source{build: func() *catalog.Catalog { return widthCatalog(widthRows, widthRows) }, opts: DefaultOptions()}
	for i, sql := range widthQueries {
		src.stmts = append(src.stmts, sqlStmt(fmt.Sprint("q", i), sql))
	}
	return src
}

// TestWidthBoundariesMatchReference: a catalog whose columns straddle
// every width boundary returns the reference rows at every pair of values
// of Workers {0,2,4}, Shards {0,3} and pruning.
func TestWidthBoundariesMatchReference(t *testing.T) {
	w, err := widthCatalog(widthRows, widthRows).Table("w")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{1, 1, 4, 4, 8, 2} {
		if got := w.ColWidth(i); got != want {
			t.Fatalf("%s is %d bytes wide, want %d", widthCols[i], got, want)
		}
	}
	widthBoundaries().run(t)
}

func widthBoundaries() *lattice {
	return &lattice{src: widthSource(), axes: []axis{workersAxis(0, 2, 4), shardsAxis(0, 3), pruningAxis},
		name: func(st stmt, c cell) string {
			return fmt.Sprintf("%s/workers=%d/shards=%d", st.name, c.opts.Workers, c.opts.Shards)
		}}
}

// TestWidthBulkEqualsIncremental: a table loaded whole and one grown to the
// same rows by appends that widen its columns freeze equal widths, and
// every statement leaves byte-identical heaps on both.
func TestWidthBulkEqualsIncremental(t *testing.T) {
	h := widthBulkEqualsIncremental().run(t)
	bulk, incr := h.cats[[2]bool{false, false}].cat, h.cats[[2]bool{true, false}].cat
	if incr.Version() == bulk.Version() {
		t.Fatal("no append widened a column")
	}
	wb, _ := bulk.Table("w")
	wi, _ := incr.Table("w")
	for i := range widthCols {
		if wb.ColWidth(i) != wi.ColWidth(i) {
			t.Fatalf("%s: bulk %d bytes, incremental %d", widthCols[i], wb.ColWidth(i), wi.ColWidth(i))
		}
	}
}

func widthBulkEqualsIncremental() *lattice {
	return &lattice{src: widthSource(), axes: []axis{workersAxis(0, 2), ingestAxis}, name: noSubtest}
}

// TestStaleArtifactRefusesWiderColumn: an artifact compiled before an
// append widened a column refuses the widened snapshot with a
// *SnapshotWidthError naming the width it reserved — it never truncates —
// and a recompile under the bumped version serves it. w_u8 widens 1 → 2,
// then the recompiled artifact goes stale as it widens 2 → 4.
func TestStaleArtifactRefusesWiderColumn(t *testing.T) {
	cat := widthCatalog(widthRows, widthRows)
	e := New(cat, DefaultOptions())
	sql := widthQueries[0]
	stale, err := e.CompileSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(stale, nil); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		val             int64
		width, reserved int64
	}{
		{256, 2, 1},   // w_u8 no longer fits a byte
		{65536, 4, 2}, // nor two
	} {
		v0 := cat.Version()
		row := widthRow(0, widthRows)
		row[1] = step.val
		r, err := cat.Append("w", [][]int64{row})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Grew || cat.Version() == v0 {
			t.Fatalf("widening append of %d: Grew %v, version %d -> %d", step.val, r.Grew, v0, cat.Version())
		}
		_, err = e.Run(stale, nil)
		var wide *SnapshotWidthError
		if !errors.As(err, &wide) {
			t.Fatalf("stale artifact over the widened column: %v, want a *SnapshotWidthError", err)
		}
		if wide.Column != "w_u8" || wide.Width != step.width || wide.Reserved != step.reserved {
			t.Fatalf("error %+v, want w_u8 %d bytes over a %d-byte region", wide, step.width, step.reserved)
		}
		fresh, err := e.CompileSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Execute(fresh.Plan)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.Run(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, res.Rows, want, true)
		stale = fresh
	}
}
