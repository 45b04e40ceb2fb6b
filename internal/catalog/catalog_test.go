package catalog

import (
	"testing"
	"testing/quick"
)

func TestDictRoundTrip(t *testing.T) {
	d := NewDict()
	a := d.ID("Chip")
	b := d.ID("Board")
	if a == b {
		t.Fatal("distinct strings share an id")
	}
	if again := d.ID("Chip"); again != a {
		t.Fatal("repeat ID not stable")
	}
	if d.String(a) != "Chip" || d.String(b) != "Board" {
		t.Fatal("decode broken")
	}
	if _, ok := d.Lookup("Chip"); !ok {
		t.Fatal("lookup existing failed")
	}
	if _, ok := d.Lookup("missing"); ok {
		t.Fatal("lookup missing succeeded")
	}
	if d.Len() != 2 {
		t.Fatalf("len = %d", d.Len())
	}
}

func TestEncodeString(t *testing.T) {
	d := NewDict()
	chip := d.ID("Chip")
	for _, c := range []struct {
		name string
		typ  Type
		dict *Dict
		s    string
		want int64
		fail bool
	}{
		{"date", TDate, nil, "1995-03-15", DateOf(1995, 3, 15), false},
		{"bad date", TDate, nil, "1995-3-15x", 0, true},
		{"dictionary hit", TStr, d, "Chip", chip, false},
		{"dictionary miss", TStr, d, "Board", -1, false},
		{"nil dictionary", TStr, nil, "Chip", -1, false},
		{"numeric column", TInt, nil, "Chip", 0, true},
	} {
		got, err := EncodeString(c.typ, c.dict, c.s)
		if (err != nil) != c.fail || got != c.want {
			t.Errorf("%s: EncodeString(%s, %q) = %d, %v; want %d, error %v", c.name, c.typ, c.s, got, err, c.want, c.fail)
		}
	}
	if _, ok := d.Lookup("Board"); ok {
		t.Error("a miss added the string to the dictionary")
	}
}

func TestTableColumns(t *testing.T) {
	tb := NewTable("t")
	c1 := tb.AddCol("a", TInt)
	tb.AddCol("b", TStr)
	c1.Data = []int64{1, 2, 3}
	tb.Col("b").Data = []int64{0, 0, 0}
	if tb.Rows() != 3 {
		t.Fatalf("rows = %d", tb.Rows())
	}
	if tb.ColIndex("b") != 1 || tb.ColIndex("z") != -1 {
		t.Fatal("ColIndex broken")
	}
	if tb.Col("b").Dict == nil {
		t.Fatal("TStr column lacks dictionary")
	}
	if err := tb.Validate(); err != nil {
		t.Fatal(err)
	}
	tb.Col("b").Data = append(tb.Col("b").Data, 0)
	if err := tb.Validate(); err == nil {
		t.Fatal("ragged table validated")
	}
}

func TestStats(t *testing.T) {
	tb := NewTable("t")
	c := tb.AddCol("v", TInt)
	c.Data = []int64{5, -3, 5, 9, 9, 9}
	st := tb.ColStats("v")
	if st.Min != -3 || st.Max != 9 {
		t.Fatalf("min/max = %d/%d", st.Min, st.Max)
	}
	if st.Distinct != 3 {
		t.Fatalf("distinct = %d", st.Distinct)
	}
	// Unique column reports exact row count.
	u := tb.AddCol("id", TInt)
	u.Unique = true
	u.Data = []int64{1, 2, 3, 4, 5, 6}
	if st := tb.ColStats("id"); st.Distinct != 6 {
		t.Fatalf("unique distinct = %d", st.Distinct)
	}
}

func TestStatsCachedPerEpoch(t *testing.T) {
	tb := NewTable("t")
	c := tb.AddCol("v", TInt)
	c.Data = []int64{1, 2}
	first := tb.ColStats("v")
	if again := tb.ColStats("v"); first != again {
		t.Fatal("stats at one row count should be cached")
	}
	// Statistics are keyed by the visible row count: growing the table
	// invalidates them, so the optimizer always estimates against the
	// current epoch's data.
	c.Data = append(c.Data, 100)
	second := tb.ColStats("v")
	if second == first {
		t.Fatal("stats should recompute after the row set grows")
	}
	if second.Max != 100 || second.Distinct != 3 {
		t.Fatalf("post-append stats = %+v", second)
	}
	// Through the catalog: after every append the statistics are those of
	// the visible prefix.
	cat := New()
	cat.Add(tb)
	for i := range 5 {
		if _, err := cat.AppendCols("t", [][]int64{{int64(-i), 7, int64(200 * i)}}); err != nil {
			t.Fatal(err)
		}
		if got, want := tb.ColStats("v"), computeStats(tb.View().Col(0), false); got != want {
			t.Fatalf("after append %d: stats %+v, want %+v", i, got, want)
		}
	}
}

func TestCatalogLookup(t *testing.T) {
	c := New()
	c.Add(NewTable("orders"))
	c.Add(NewTable("lineitem"))
	if _, err := c.Table("orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Fatal("missing table found")
	}
	names := c.Names()
	if len(names) != 2 || names[0] != "lineitem" {
		t.Fatalf("names = %v", names)
	}
}

func TestDateRoundTrip(t *testing.T) {
	if err := quick.Check(func(n uint16) bool {
		day := int64(n % 3000)
		s := FormatDate(day)
		back, err := ParseDate(s)
		return err == nil && back == day
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDateKnownValues(t *testing.T) {
	if d := DateOf(1992, 1, 1); d != 0 {
		t.Fatalf("epoch = %d", d)
	}
	if d := DateOf(1992, 1, 2); d != 1 {
		t.Fatalf("day 2 = %d", d)
	}
	if d, err := ParseDate("1995-04-01"); err != nil || d != DateOf(1995, 4, 1) {
		t.Fatalf("parse: %d %v", d, err)
	}
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Fatal("bad date parsed")
	}
}

func TestDateOrderingMatchesCalendar(t *testing.T) {
	if DateOf(1995, 4, 1) <= DateOf(1995, 3, 31) {
		t.Fatal("date encoding not monotonic")
	}
	if DateOf(1998, 8, 2) <= DateOf(1992, 6, 1) {
		t.Fatal("date encoding not monotonic across years")
	}
}
