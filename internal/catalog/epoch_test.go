package catalog

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

func epochTestCatalog(t *testing.T, rows int) *Catalog {
	t.Helper()
	c := New()
	tb := NewTable("t")
	a := tb.AddCol("a", TInt)
	b := tb.AddCol("b", TInt)
	for i := 0; i < rows; i++ {
		a.Data = append(a.Data, int64(i))
		b.Data = append(b.Data, int64(i%7))
	}
	c.Add(tb)
	return c
}

func TestCapRowsFor(t *testing.T) {
	if got := CapRowsFor(0); got != capRowsMin {
		t.Fatalf("CapRowsFor(0) = %d", got)
	}
	if got := CapRowsFor(100); got != capRowsMin {
		t.Fatalf("CapRowsFor(100) = %d", got)
	}
	// Capacity is a power of two with at least 12.5% headroom.
	for _, n := range []int{1000, 5000, 60000, 1 << 20} {
		c := CapRowsFor(n)
		if c&(c-1) != 0 {
			t.Fatalf("CapRowsFor(%d) = %d, not a power of two", n, c)
		}
		if c < n+n/8 {
			t.Fatalf("CapRowsFor(%d) = %d, under headroom", n, c)
		}
		if c >= 2*(n+n/8) && c > capRowsMin {
			t.Fatalf("CapRowsFor(%d) = %d, over-reserved", n, c)
		}
	}
	// Pure capacity-class function: two loads in the same class reserve
	// identically — the byte-identity precondition of the determinism
	// battery's bulk-vs-incremental axis.
	if CapRowsFor(3000) != CapRowsFor(3300) {
		t.Fatal("same capacity class must reserve identically")
	}
}

func TestAppendAdvancesEpochNotVersion(t *testing.T) {
	c := epochTestCatalog(t, 100)
	v0, e0 := c.Version(), c.Epoch()
	if e0 != 0 {
		t.Fatalf("fresh catalog epoch = %d", e0)
	}
	r, err := c.Append("t", [][]int64{{100, 1}, {101, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch != e0+1 || r.Lo != 100 || r.Hi != 102 || r.Grew {
		t.Fatalf("append result = %+v", r)
	}
	if c.Version() != v0 {
		t.Fatal("in-capacity append must not change the catalog version")
	}
	if c.Epoch() != e0+1 {
		t.Fatalf("epoch = %d, want %d", c.Epoch(), e0+1)
	}
	tb, _ := c.Table("t")
	if tb.Rows() != 102 {
		t.Fatalf("rows = %d", tb.Rows())
	}
}

func TestAppendJournal(t *testing.T) {
	c := epochTestCatalog(t, 10)
	base := c.BaseRows()
	if base["t"] != 10 {
		t.Fatalf("base rows = %v", base)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.Append("t", [][]int64{{int64(i), 0}}); err != nil {
			t.Fatal(err)
		}
	}
	j := c.EpochJournal()
	if len(j) != 3 {
		t.Fatalf("journal has %d events", len(j))
	}
	rows := base["t"]
	for i, ev := range j {
		if ev.Epoch != uint64(i+1) {
			t.Fatalf("event %d epoch = %d", i, ev.Epoch)
		}
		if ev.Lo != rows || ev.Hi != rows+1 || ev.Table != "t" {
			t.Fatalf("event %d window = %+v, want [%d,%d)", i, ev, rows, rows+1)
		}
		rows = ev.Hi
	}
}

func TestAppendBeyondCapacityGrowsAndBumps(t *testing.T) {
	c := epochTestCatalog(t, 10)
	tb, _ := c.Table("t")
	cap0 := tb.RowCap()
	v0 := c.Version()

	big := make([][]int64, 2)
	for i := range big {
		big[i] = make([]int64, cap0) // outgrows capacity from 10 rows
	}
	r, err := c.AppendCols("t", big)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Grew {
		t.Fatal("append past capacity must report Grew")
	}
	if c.Version() == v0 {
		t.Fatal("capacity growth must bump the catalog version")
	}
	if tb.RowCap() <= cap0 {
		t.Fatalf("capacity did not grow: %d -> %d", cap0, tb.RowCap())
	}
	j := c.EpochJournal()
	if !j[len(j)-1].Grew {
		t.Fatal("journal must record the growth")
	}
}

func TestAppendValidation(t *testing.T) {
	c := epochTestCatalog(t, 10)
	if _, err := c.Append("nope", [][]int64{{1, 2}}); err == nil {
		t.Fatal("append to unknown table succeeded")
	}
	if _, err := c.Append("t", nil); err == nil {
		t.Fatal("empty append succeeded")
	}
	if _, err := c.Append("t", [][]int64{{1}}); err == nil {
		t.Fatal("arity-mismatched row append succeeded")
	}
	if _, err := c.AppendCols("t", [][]int64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged columnar append succeeded")
	}
	if c.Epoch() != 0 || len(c.EpochJournal()) != 0 {
		t.Fatal("failed appends must not advance the epoch")
	}
}

func TestSnapshotIsolation(t *testing.T) {
	c := epochTestCatalog(t, 100)
	snap := c.Snapshot()
	if snap.Epoch != 0 {
		t.Fatalf("snapshot epoch = %d", snap.Epoch)
	}
	v := snap.View("t")
	if v == nil || v.Rows != 100 {
		t.Fatalf("view rows = %v", v)
	}
	if _, err := c.Append("t", [][]int64{{999, 999}}); err != nil {
		t.Fatal(err)
	}
	// The pinned view must not see the appended row.
	if v.Rows != 100 || len(v.Col(0)) != 100 {
		t.Fatal("snapshot view grew after append")
	}
	for _, x := range v.Col(0) {
		if x == 999 {
			t.Fatal("appended value visible through pinned view")
		}
	}
	// A fresh snapshot does.
	s2 := c.Snapshot()
	if s2.Epoch != 1 || s2.View("t").Rows != 101 {
		t.Fatalf("fresh snapshot epoch=%d rows=%d", s2.Epoch, s2.View("t").Rows)
	}
}

func TestViewZonesPerEpoch(t *testing.T) {
	c := epochTestCatalog(t, 2000)
	tb, _ := c.Table("t")
	v1 := tb.View()
	z1 := v1.Zones()
	if len(z1) == 0 {
		t.Fatal("no zones")
	}
	if got := z1[0].Hi - z1[0].Lo; got != ZoneRowsFor(v1.Rows) {
		t.Fatalf("zone granularity %d, want %d (pure function of rows)", got, ZoneRowsFor(v1.Rows))
	}
	batch := make([][]int64, 2)
	for i := range batch {
		batch[i] = make([]int64, 500)
	}
	if _, err := c.AppendCols("t", batch); err != nil {
		t.Fatal(err)
	}
	v2 := tb.View()
	z2 := v2.Zones()
	if z2[len(z2)-1].Hi != int64(v2.Rows) {
		t.Fatal("new view's zones must cover the appended tail")
	}
	// The old view's zone map is unchanged (held by the view's record).
	if again := v1.Zones(); len(again) != len(z1) || again[len(again)-1].Hi != z1[len(z1)-1].Hi {
		t.Fatal("old view's zone map changed after append")
	}
	// Bounds folded over the zone map only widen from one epoch to the next.
	fold := func(zones []Zone) []Bound {
		out := append([]Bound(nil), zones[0].Bounds...)
		for _, z := range zones[1:] {
			for ci, b := range z.Bounds {
				out[ci] = Bound{Min: min(out[ci].Min, b.Min), Max: max(out[ci].Max, b.Max)}
			}
		}
		return out
	}
	b1, b2 := fold(z1), fold(z2)
	for ci := range b1 {
		if b2[ci].Min > b1[ci].Min || b2[ci].Max < b1[ci].Max {
			t.Fatalf("col %d bounds regressed: %+v -> %+v", ci, b1[ci], b2[ci])
		}
	}
	// However many epochs follow, the first view keeps the very zone map
	// it built: no later row count evicts it, and nothing rebuilds it.
	for range 9 {
		if _, err := c.AppendCols("t", [][]int64{{1, 2}, {3, 4}}); err != nil {
			t.Fatal(err)
		}
		tb.View().Zones()
	}
	again := v1.Zones()
	if &again[0] != &z1[0] {
		t.Fatal("the first view's zone map was rebuilt after later epochs")
	}
	if want := buildZones([][]int64{v1.Col(0), v1.Col(1)}, int64(v1.Rows)); !reflect.DeepEqual(again, want) {
		t.Fatal("the first view's zone map differs from its prefix's")
	}
}

// TestRecordReadsRaceAppends: goroutines make the first reads of one
// record's statistics and zone map while another goroutine appends; every
// reader sees the one zone map and the statistics of the record's prefix.
// Run under -race.
func TestRecordReadsRaceAppends(t *testing.T) {
	c := epochTestCatalog(t, 3000)
	tb, _ := c.Table("t")
	v := tb.View()
	want := []Stats{computeStats(v.Col(0), false), computeStats(v.Col(1), false)}
	zones := make([][]Zone, 4)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 20 {
			if _, err := c.AppendCols("t", [][]int64{{int64(5000 + i)}, {9}}); err != nil {
				t.Error(err)
			}
			tb.ColStats("a")
		}
	}()
	for g := range zones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, w := range want {
				if got := v.rec.stat(i, false); got != w {
					t.Errorf("column %d statistics %+v, want %+v", i, got, w)
				}
			}
			zones[g] = v.Zones()
		}()
	}
	wg.Wait()
	for _, z := range zones[1:] {
		if &z[0] != &zones[0][0] {
			t.Fatal("readers of one record saw different zone maps")
		}
	}
	if !reflect.DeepEqual(zones[0], buildZones([][]int64{v.Col(0), v.Col(1)}, int64(v.Rows))) {
		t.Fatal("the record's zone map differs from its prefix's")
	}
}

func TestShardsFromViewPinRows(t *testing.T) {
	c := epochTestCatalog(t, 3000)
	tb, _ := c.Table("t")
	v := tb.View()
	if _, err := c.Append("t", [][]int64{{1, 1}}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 4} {
		total := int64(0)
		for _, sh := range v.Shards(n) {
			total += sh.Rows()
		}
		if total != int64(v.Rows) {
			t.Fatalf("%d-way shards cover %d rows, view has %d", n, total, v.Rows)
		}
	}
}

// uniqueTestCatalog holds table "u" with a Unique key column k = 0..rows-1
// and a plain column v.
func uniqueTestCatalog(t *testing.T, rows int) *Catalog {
	t.Helper()
	c := New()
	tb := NewTable("u")
	k := tb.AddCol("k", TInt)
	k.Unique = true
	v := tb.AddCol("v", TInt)
	for i := 0; i < rows; i++ {
		k.Data = append(k.Data, int64(i))
		v.Data = append(v.Data, int64(i%3))
	}
	c.Add(tb)
	return c
}

// TestAppendRefusesRepeatedUniqueKey pins the catalog's Unique contract:
// a batch that repeats a key of a Unique column, against the table or
// within itself, fails with a *UniqueKeyError naming the key, and leaves
// the epoch, version, rows and journal as they were. A repeated value in a
// plain column is accepted.
func TestAppendRefusesRepeatedUniqueKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		keys []int64
		dup  int64
	}{
		{"against the table", []int64{100, 7, 101}, 7},
		{"within the batch", []int64{100, 102, 100}, 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := uniqueTestCatalog(t, 100)
			if _, err := c.AppendCols("u", [][]int64{{150}, {1}}); err != nil {
				t.Fatal(err)
			}
			tb, _ := c.Table("u")
			e0, v0, r0, j0 := c.Epoch(), c.Version(), tb.Rows(), len(c.EpochJournal())
			vals := make([]int64, len(tc.keys)) // v repeats 0: not Unique
			_, err := c.AppendCols("u", [][]int64{tc.keys, vals})
			var ue *UniqueKeyError
			if !errors.As(err, &ue) {
				t.Fatalf("append of keys %v: err = %v, want *UniqueKeyError", tc.keys, err)
			}
			if *ue != (UniqueKeyError{Table: "u", Column: "k", Key: tc.dup}) {
				t.Fatalf("error = %+v, want key %d of u.k", *ue, tc.dup)
			}
			if c.Epoch() != e0 || c.Version() != v0 || tb.Rows() != r0 || len(c.EpochJournal()) != j0 {
				t.Fatalf("refused append changed the catalog: epoch %d→%d, version %d→%d, rows %d→%d, journal %d→%d",
					e0, c.Epoch(), v0, c.Version(), r0, tb.Rows(), j0, len(c.EpochJournal()))
			}
			if _, err := c.Append("u", [][]int64{{150, 0}}); !errors.As(err, &ue) || ue.Key != 150 {
				t.Fatalf("row append of key 150: err = %v, want *UniqueKeyError", err)
			}
		})
	}
}

// TestAppendAcceptsDistinctUniqueKeys: a batch of new keys is accepted
// whether or not it rises above the table's maximum, and the keys it adds
// count for the next batch.
func TestAppendAcceptsDistinctUniqueKeys(t *testing.T) {
	c := uniqueTestCatalog(t, 10)
	tb, _ := c.Table("u")
	k := tb.Col("k")
	for i := range 10 { // free the keys 0, 2, 4, 6, 8
		k.Data[i] = int64(2*i + 1)
	}
	c.Bump()
	for _, keys := range [][]int64{
		{20, 21, 22},  // rising above the maximum
		{8, 0, 30, 4}, // distinct, not monotone, some below the maximum
		{23},
	} {
		if _, err := c.AppendCols("u", [][]int64{keys, make([]int64, len(keys))}); err != nil {
			t.Fatalf("append of keys %v: %v", keys, err)
		}
	}
	if tb.Rows() != 18 {
		t.Fatalf("rows = %d, want 18", tb.Rows())
	}
	var ue *UniqueKeyError
	for _, key := range []int64{30, 8, 23} {
		if _, err := c.Append("u", [][]int64{{key, 0}}); !errors.As(err, &ue) || ue.Key != key {
			t.Fatalf("append of key %d: err = %v, want *UniqueKeyError", key, err)
		}
	}
}

// TestUniqueAppendAllocatesNothing: a rising batch above the key column's
// maximum, the shape of every datagen.AppendBatch, is checked without
// allocating.
func TestUniqueAppendAllocatesNothing(t *testing.T) {
	c := uniqueTestCatalog(t, 100)
	tb, _ := c.Table("u")
	keys, vals := make([]int64, 4), make([]int64, 4)
	next := int64(100)
	allocs := testing.AllocsPerRun(50, func() {
		for i := range keys {
			keys[i] = next
			next++
		}
		tb.mu.Lock()
		err := tb.checkKeysLocked([][]int64{keys, vals})
		tb.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("rising key check allocated %.1f times per batch", allocs)
	}
}
