package catalog

import (
	"testing"

	"repro/internal/xrand"
)

func testTable(t *testing.T, rows int) *Table {
	t.Helper()
	tb := NewTable("t")
	a := tb.AddCol("a", TInt)
	b := tb.AddCol("b", TInt)
	r := xrand.New(42)
	for i := 0; i < rows; i++ {
		a.Data = append(a.Data, int64(i)) // clustered
		b.Data = append(b.Data, r.Int64Range(-1000, 1000))
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestZonesTileTable(t *testing.T) {
	for _, rows := range []int{0, 1, 255, 256, 257, 1024, 10000, 70000} {
		tb := testTable(t, rows)
		zones := tb.View().Zones()
		want := int64(0)
		for i, z := range zones {
			if z.Index != i {
				t.Fatalf("rows=%d zone %d has Index %d", rows, i, z.Index)
			}
			if z.Lo != want {
				t.Fatalf("rows=%d zone %d starts at %d, want %d", rows, i, z.Lo, want)
			}
			if z.Hi <= z.Lo {
				t.Fatalf("rows=%d zone %d empty [%d,%d)", rows, i, z.Lo, z.Hi)
			}
			want = z.Hi
		}
		if want != int64(rows) {
			t.Fatalf("rows=%d zones cover %d rows", rows, want)
		}
	}
}

func TestZoneBoundsExact(t *testing.T) {
	tb := testTable(t, 3000)
	for _, z := range tb.View().Zones() {
		for ci, c := range tb.Cols {
			min, max := c.Data[z.Lo], c.Data[z.Lo]
			for _, v := range c.Data[z.Lo:z.Hi] {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
			}
			if z.Bounds[ci].Min != min || z.Bounds[ci].Max != max {
				t.Fatalf("zone %d col %d bounds [%d,%d], want [%d,%d]",
					z.Index, ci, z.Bounds[ci].Min, z.Bounds[ci].Max, min, max)
			}
		}
	}
}

func TestShardsPartition(t *testing.T) {
	tb := testTable(t, 10000)
	zones := tb.View().Zones()
	for _, n := range []int{1, 2, 3, 4, 8, 16, 1000} {
		shards := tb.View().Shards(n)
		rowCursor, zoneCount := int64(0), 0
		for _, sh := range shards {
			if sh.Lo != rowCursor {
				t.Fatalf("n=%d shard %d starts at %d, want %d", n, sh.ID, sh.Lo, rowCursor)
			}
			if sh.Rows() <= 0 {
				t.Fatalf("n=%d shard %d empty", n, sh.ID)
			}
			zoneCount += len(sh.Zones)
			// The shard's zones tile exactly its row range.
			zoneCursor := sh.Lo
			for _, z := range sh.Zones {
				if z.Lo != zoneCursor {
					t.Fatalf("n=%d shard %d zone %d starts at %d, want %d", n, sh.ID, z.Index, z.Lo, zoneCursor)
				}
				zoneCursor = z.Hi
			}
			if zoneCursor != sh.Hi {
				t.Fatalf("n=%d shard %d zones end at %d, shard at %d", n, sh.ID, zoneCursor, sh.Hi)
			}
			rowCursor = sh.Hi
		}
		if rowCursor != int64(tb.Rows()) {
			t.Fatalf("n=%d shards cover %d rows, want %d", n, rowCursor, tb.Rows())
		}
		if zoneCount != len(zones) {
			t.Fatalf("n=%d shards own %d zones, want %d", n, zoneCount, len(zones))
		}
	}
}

// Zone granularity must not depend on the shard count: the same zone list
// backs every n-way split.
func TestZonesShardInvariant(t *testing.T) {
	tb := testTable(t, 20000)
	z1 := tb.View().Zones()
	for _, n := range []int{1, 2, 4, 8} {
		total := 0
		for _, sh := range tb.View().Shards(n) {
			for _, z := range sh.Zones {
				if z.Lo != z1[z.Index].Lo || z.Hi != z1[z.Index].Hi {
					t.Fatalf("n=%d zone %d moved", n, z.Index)
				}
				total++
			}
		}
		if total != len(z1) {
			t.Fatalf("n=%d shards see %d zones, want %d", n, total, len(z1))
		}
	}
}

func TestZoneRowsFor(t *testing.T) {
	cases := []struct {
		rows int
		want int64
	}{{0, 256}, {100, 256}, {3000, 256}, {65536, 1024}, {1 << 20, 8192}}
	for _, c := range cases {
		if got := ZoneRowsFor(c.rows); got != c.want {
			t.Fatalf("ZoneRowsFor(%d) = %d, want %d", c.rows, got, c.want)
		}
	}
}
