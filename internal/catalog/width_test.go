package catalog

import (
	"math"
	"slices"
	"testing"
)

func TestWidthFor(t *testing.T) {
	for _, tc := range []struct {
		vals []int64
		want int
	}{
		{nil, 1},
		{[]int64{0, 255}, 1},
		{[]int64{0, 256}, 2},
		{[]int64{255, 256}, 2},
		{[]int64{0, 65535}, 2},
		{[]int64{0, 65536}, 4},
		{[]int64{65535, 65536, 255}, 4},
		{[]int64{-1}, 4},
		{[]int64{255, -1}, 4},
		{[]int64{math.MaxInt32, math.MinInt32}, 4},
		{[]int64{math.MaxInt32 + 1}, 8},
		{[]int64{math.MinInt32 - 1}, 8},
		{[]int64{math.MaxInt64, 0}, 8},
	} {
		if got := WidthFor(tc.vals); got != tc.want {
			t.Errorf("WidthFor(%v) = %d, want %d", tc.vals, got, tc.want)
		}
	}
}

// widthTable registers a table whose columns sit just below each width
// boundary: u8 at 255, i32 at 2³¹−1, i64 past int32, u16 at 65535.
func widthTable(t *testing.T, rows int) (*Catalog, *Table) {
	t.Helper()
	c := New()
	tb := NewTable("w")
	u8, i32, i64 := tb.AddCol("u8", TInt), tb.AddCol("i32", TInt), tb.AddCol("i64", TInt)
	u16 := tb.AddCol("u16", TInt)
	for i := 0; i < rows; i++ {
		u8.Data = append(u8.Data, int64(255-i%256))
		i32.Data = append(i32.Data, math.MaxInt32-int64(i))
		i64.Data = append(i64.Data, int64(i)<<40)
		u16.Data = append(u16.Data, int64(65535-i%65536))
	}
	c.Add(tb)
	return c, tb
}

func colWidths(tb *Table) []int {
	var ws []int
	for i := range tb.Cols {
		ws = append(ws, tb.ColWidth(i))
	}
	return ws
}

// TestWidthsFrozenAtAdd: registration freezes each column's width from its
// contents, and a view carries the widths of its moment.
func TestWidthsFrozenAtAdd(t *testing.T) {
	_, tb := widthTable(t, 300)
	if got, want := colWidths(tb), []int{1, 4, 8, 2}; !slices.Equal(got, want) {
		t.Fatalf("widths %v, want %v", got, want)
	}
	v := tb.View()
	for i, w := range []int{1, 4, 8, 2} {
		if v.ColWidth(i) != w {
			t.Errorf("view column %d width %d, want %d", i, v.ColWidth(i), w)
		}
	}
}

// TestAppendWidensAndBumps: an append that brings a value its column's
// width cannot hold widens the column, and that is growth — Grew is set,
// the journal records it and the catalog version bumps — while a value at
// the boundary leaves width and version alone. A view taken before keeps
// the old width.
func TestAppendWidensAndBumps(t *testing.T) {
	for _, tc := range []struct {
		name      string
		row       []int64 // u8, i32, i64, u16
		col, want int
	}{
		{"255", []int64{255, 0, 0, 0}, 0, 1},
		{"255->256", []int64{256, 0, 0, 0}, 0, 2},
		{"1 byte past 2", []int64{65536, 0, 0, 0}, 0, 4},
		{"negative into 1 byte", []int64{-1, 0, 0, 0}, 0, 4},
		{"65535", []int64{0, 0, 0, 65535}, 3, 2},
		{"65535->65536", []int64{0, 0, 0, 65536}, 3, 4},
		{"negative into 2 bytes", []int64{0, 0, 0, -1}, 3, 4},
		{"2^31-1", []int64{0, math.MaxInt32, 0, 0}, 1, 4},
		{"-2^31", []int64{0, math.MinInt32, 0, 0}, 1, 4},
		{"2^31-1->2^31", []int64{0, math.MaxInt32 + 1, 0, 0}, 1, 8},
		{"1 byte past int32", []int64{math.MaxInt32 + 1, 0, 0, 0}, 0, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, tb := widthTable(t, 300)
			before, v0 := tb.View(), c.Version()
			old := before.ColWidth(tc.col)
			r, err := c.Append("w", [][]int64{tc.row})
			if err != nil {
				t.Fatal(err)
			}
			widened := tc.want > old
			if got := tb.ColWidth(tc.col); got != tc.want {
				t.Fatalf("width %d, want %d", got, tc.want)
			}
			if r.Grew != widened || (c.Version() != v0) != widened {
				t.Fatalf("widened %v: Grew %v, version %d -> %d", widened, r.Grew, v0, c.Version())
			}
			if j := c.EpochJournal(); j[len(j)-1].Grew != widened {
				t.Fatalf("journal Grew %v, want %v", j[len(j)-1].Grew, widened)
			}
			if before.ColWidth(tc.col) != old {
				t.Fatal("an append changed the width an earlier view captured")
			}
			if got := c.Snapshot().View("w").ColWidth(tc.col); got != tc.want {
				t.Fatalf("new snapshot width %d, want %d", got, tc.want)
			}
			if r.Hi != 301 || tb.RowCap() != CapRowsFor(300) {
				t.Fatalf("append window %+v, capacity %d", r, tb.RowCap())
			}
		})
	}
}

// TestWidthsBulkEqualsIncremental: width is a pure function of contents —
// a table loaded whole and one grown to the same rows by appends that
// cross every boundary end with equal widths and equal column data.
func TestWidthsBulkEqualsIncremental(t *testing.T) {
	_, bulk := widthTable(t, 600)
	c := New()
	incr := NewTable("w")
	for _, col := range bulk.Cols {
		incr.AddCol(col.Name, col.Type)
	}
	c.Add(incr)
	if got := colWidths(incr); !slices.Equal(got, []int{1, 1, 1, 1}) {
		t.Fatalf("empty table widths %v, want all 1", got)
	}
	// Append back to front so the narrow values come first and every
	// column widens along the way.
	v0, grew := c.Version(), 0
	for hi := 600; hi > 0; hi -= 100 {
		cols := make([][]int64, len(bulk.Cols))
		for i, col := range bulk.Cols {
			cols[i] = append([]int64(nil), col.Data[hi-100:hi]...)
		}
		r, err := c.AppendCols("w", cols)
		if err != nil {
			t.Fatal(err)
		}
		if r.Grew {
			grew++
		}
	}
	if got, want := colWidths(incr), colWidths(bulk); !slices.Equal(got, want) {
		t.Fatalf("incremental widths %v, bulk %v", got, want)
	}
	if grew == 0 || c.Version() == v0 {
		t.Fatalf("no append widened (grew %d, version %d -> %d)", grew, v0, c.Version())
	}
	if incr.RowCap() != bulk.RowCap() {
		t.Fatalf("capacity %d, bulk %d", incr.RowCap(), bulk.RowCap())
	}
}

// TestBumpRecomputesWidths: an in-place mutation followed by Bump narrows
// or widens the frozen widths to the new contents.
func TestBumpRecomputesWidths(t *testing.T) {
	c, tb := widthTable(t, 300)
	for i := range tb.Cols[2].Data {
		tb.Cols[2].Data[i] = 7
	}
	tb.Cols[0].Data[0] = -3
	c.Bump()
	if got, want := colWidths(tb), []int{4, 4, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("widths after Bump %v, want %v", got, want)
	}
}

// TestWidthsFollowDirectMutation: rows a loader appends to Data directly,
// bypassing Append, still count — a view and the frozen width both see a
// value that needs more bytes, so no artifact compiled after it stages a
// truncated value.
func TestWidthsFollowDirectMutation(t *testing.T) {
	_, tb := widthTable(t, 300)
	for _, c := range tb.Cols {
		c.Data = append(c.Data, 1000)
	}
	if got := tb.View().ColWidth(0); got != 2 {
		t.Fatalf("view width %d after a direct append of 1000, want 2", got)
	}
	if got := tb.ColWidth(0); got != 2 {
		t.Fatalf("width %d after a direct append of 1000, want 2", got)
	}
}
