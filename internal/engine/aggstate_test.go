package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/vm"
	"repro/internal/xrand"
)

// sharedAggState runs statements that mix sum, avg, count, min and max
// over shared and distinct arguments at every combination of Workers
// {0,4} x morsel {default,7} x Shards {0,3}. The first four plan a
// group-by (one over a join, one scalar), the last two a group join.
func sharedAggState() *lattice {
	src := testSource()
	src.opts.MorselRows = 0
	for i, sql := range []string{
		"select l_returnflag, sum(l_quantity) as a, avg(l_quantity) as b, count(*) as c, min(l_quantity) as d, " +
			"max(l_quantity) as e, avg(l_extendedprice) as f, count(l_tax) as g, max(l_quantity) as h, " +
			"sum(l_extendedprice * l_discount) as i, min(l_extendedprice * l_discount) as j " +
			"from lineitem group by l_returnflag",
		"select l_returnflag, l_linestatus, avg(l_discount) as a, min(l_discount) as b, sum(l_discount) as c, " +
			"avg(l_discount + 1) as d, max(l_quantity) as e, min(l_quantity) as f " +
			"from lineitem where l_shipdate <= '1998-09-02' group by l_returnflag, l_linestatus",
		"select s_nationkey, avg(l_quantity) as a, sum(l_quantity) as b, count(*) as c, max(l_extendedprice) as d " +
			"from supplier, lineitem where s_suppkey = l_suppkey group by s_nationkey",
		"select sum(l_quantity) as a, avg(l_quantity) as b, count(*) as c, min(l_quantity) as d, min(l_quantity) as e " +
			"from lineitem where l_quantity < 10",
		"select s.id, count(*) as a, avg(s.price) as b, sum(s.price) as c, max(s.price) as d, " +
			"min(s.price) as e, avg(s.prod_costs) as f, sum(s.price / s.vat_factor) as g " +
			"from sales s, products p where s.id = p.id group by s.id",
		"select o_custkey, avg(o_totalprice) as a, count(*) as b, max(o_totalprice) as c, sum(o_totalprice) as d " +
			"from customer, orders where c_custkey = o_custkey group by o_custkey",
	} {
		src.stmts = append(src.stmts, sqlStmt(fmt.Sprint("stmt", i), sql))
	}
	return &lattice{src: src, axes: []axis{workersAxis(0, 4), morselAxis(0, 7), shardsAxis(0, 3), pruningAxis, partitionsAxis(8, 1)}, full: 3, name: byKnobs}
}

// TestSharedAggStateMatchesReference: aggregates that share state return
// the reference executor's rows in every execution configuration, group
// joins included, and q1's group entry holds three state slots: the sums
// of l_quantity and l_extendedprice, and one count.
func TestSharedAggStateMatchesReference(t *testing.T) {
	l := sharedAggState()
	l.each = func(t *testing.T, r latticeRun) {
		gj := false
		plan.Walk(r.p.Compiled.Plan, func(n plan.Node) {
			_, ok := n.(*plan.GroupJoin)
			gj = gj || ok
		})
		if want := r.st.name >= "stmt4"; gj != want {
			t.Fatalf("plan has a group join: %v, want %v", gj, want)
		}
	}
	l.run(t)

	cat := testCatalog(t)
	w, _ := queries.ByName("q1")
	cq, err := New(cat, DefaultOptions()).CompileQuery(w.Query)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range cq.Pipe.Pipelines {
		if p.Sink.Kind != pipeline.SinkGroupAgg {
			continue
		}
		if n := len(p.Sink.Slots); n != 3 {
			t.Errorf("q1's group entry holds %d state slots, want 3: %v", n, p.Sink.Slots)
		}
		if want := int64(codegen.HTEntryHeader + 2*8 + 3*8); p.Sink.HT.EntrySize != want {
			t.Errorf("q1's group entry is %d bytes, want %d", p.Sink.HT.EntrySize, want)
		}
	}
}

// groupDirRule is the directory rule restated from the catalog: a key's
// domain is 1 for a literal, a scan column's distinct count unless it
// reads the statistics' cap, else the bound; the product, capped at the
// input bound, sizes the directory between 512 slots and the bound's.
func groupDirRule(g *plan.GroupBy) int64 {
	scan, _ := g.Input.(*plan.Scan)
	in := g.Input.BoundRows()
	d := 1
	for _, k := range g.Keys {
		switch x := k.(type) {
		case *plan.PConst:
		case *plan.PCol:
			dom := in
			if scan != nil {
				if n := scan.Table.ColStats(scan.Table.Cols[scan.Cols[x.Pos]].Name).Distinct; n < catalog.DistinctCap {
					dom = n
				}
			}
			d = min(d*dom, in)
		default:
			d = in
		}
	}
	bound := pipeline.DirSlots(g.BoundRows())
	return min(bound, max(512, pipeline.DirSlots(d)))
}

// TestGroupDirSlotsFollowDistinctCounts: every suite group-by's directory
// follows the distinct-count rule (a group-by over a join is checked
// against its bound's size from above only), q15's and q1's shrink to 512
// slots, and an artifact compiled before appends that add groups past its
// directory size still returns the reference rows, with no recompile.
func TestGroupDirSlotsFollowDistinctCounts(t *testing.T) {
	cat := testCatalog(t)
	e := New(cat, DefaultOptions())
	for _, w := range queries.Suite() {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		for n, ht := range cq.Layout.HT {
			g, ok := n.(*plan.GroupBy)
			if !ok {
				continue
			}
			bound := pipeline.DirSlots(g.BoundRows())
			if _, scan := g.Input.(*plan.Scan); scan || len(g.Keys) == 0 {
				if want := groupDirRule(g); ht.DirSlots != want {
					t.Errorf("%s: %d directory slots, want %d", w.Name, ht.DirSlots, want)
				}
			} else if ht.DirSlots > bound || ht.DirSlots < min(bound, 512) {
				t.Errorf("%s: %d directory slots, want between %d and %d", w.Name, ht.DirSlots, min(bound, 512), bound)
			}
			switch w.Name {
			case "q1", "q15":
				if ht.DirSlots != 512 {
					t.Errorf("%s: %d directory slots, want 512", w.Name, ht.DirSlots)
				}
			}
		}
	}

	for _, sc := range sessionConfigs {
		t.Run(sc.name, func(t *testing.T) {
			cat := mviewCatalog(xrand.New(0xd15c), 1500)
			svc := NewService(cat, DefaultOptions(), 0)
			se := svc.NewSession()
			sc.apply(se)
			const sql = "select a, b, sum(v) as s, avg(v) as av, count(*) as n, min(v) as mn, max(v) as mx " +
				"from m group by a, b order by a, b"
			p1, err := se.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			var dir int64
			for n, ht := range p1.Compiled.Layout.HT {
				if _, ok := n.(*plan.GroupBy); ok {
					dir = ht.DirSlots
				}
			}
			if dir != 512 {
				t.Fatalf("%d directory slots for 153 groups, want 512", dir)
			}
			tb, err := cat.Table("m")
			if err != nil {
				t.Fatal(err)
			}
			// New keys stay in a's one-byte width, so the append neither
			// widens a column nor outgrows the capacity.
			r := xrand.New(0xadd)
			cols := make([][]int64, 3)
			for i := tb.Rows(); i < tb.RowCap()-16; i++ {
				cols[0] = append(cols[0], r.Int64Range(9, 255))
				cols[1] = append(cols[1], r.Int64Range(0, 16))
				cols[2] = append(cols[2], r.Int64Range(-100, 100))
			}
			if _, err := svc.AppendCols("m", cols); err != nil {
				t.Fatal(err)
			}
			p2, err := se.Prepare(sql)
			if err != nil {
				t.Fatal(err)
			}
			if p2.Compiled != p1.Compiled {
				t.Fatal("the append recompiled the statement")
			}
			res, err := se.Run(p2, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Execute(p2.Compiled.Plan)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(want)) <= dir {
				t.Fatalf("%d groups after the append, want more than the %d directory slots", len(want), dir)
			}
			rowsEqual(t, res.Rows, want, true)
		})
	}
}

// TestRegionFullTrapsAreTyped: a join whose output outgrows the result
// buffer (Join.BoundRows' ×4 on a non-unique key) and a hash-table arena
// cut to one entry fail with a *RegionFullError naming the region and its
// capacity, on the one-core path and on workers, and the trap stays
// reachable through errors.As.
func TestRegionFullTrapsAreTyped(t *testing.T) {
	cat := testCatalog(t)
	const sql = "select a.l_orderkey, b.l_orderkey from lineitem a, lineitem b " +
		"where a.l_returnflag = b.l_returnflag and b.l_orderkey < 20"
	for _, workers := range []int{0, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		cq, err := NewCompiler(cat, opts).CompileSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(cat, opts).Run(cq, nil)
		var full *RegionFullError
		if !errors.As(err, &full) || full.Region != "result buffer" || full.Capacity != cq.resultEnd-cq.resultBase {
			t.Errorf("workers=%d: %v, want a full result buffer of %d bytes", workers, err, cq.resultEnd-cq.resultBase)
		}
		if trap := (*vm.TrapError)(nil); !errors.As(err, &trap) {
			t.Errorf("workers=%d: %v does not wrap the trap", workers, err)
		}
		t.Logf("workers=%d: %v", workers, err)
	}

	w, _ := queries.ByName("q18")
	for _, workers := range []int{0, 4} {
		opts := DefaultOptions()
		opts.Workers = workers
		cq, err := NewCompiler(cat, opts).CompileQuery(w.Query)
		if err != nil {
			t.Fatal(err)
		}
		var ht *pipeline.HTLayout
		for _, h := range cq.Layout.HT {
			ht = h
		}
		_, err = New(cat, opts).Run(oneEntryArenas(cq), nil)
		var full *RegionFullError
		if !errors.As(err, &full) || full.Region != "hash-table arena" || full.Capacity != ht.EntrySize {
			t.Errorf("workers=%d: %v, want a full hash-table arena of %d bytes", workers, err, ht.EntrySize)
		}
		t.Logf("workers=%d: %v", workers, err)
	}
}

// TestStaleGroupDirectoryCost bounds what a group-by artifact pays when
// appends add groups after its directory was sized. A statement compiled
// over 153 groups (512 slots) runs, with no recompile, after in-capacity
// appends in which every row is a new group, against a compile of the
// appended table (the bound's directory). Its chains average G/512
// entries for G groups; the extra cycles must stay under a factor
// 1 + G/4096 of the fresh compile's, which DESIGN.md states. The last case
// appends the most new groups a 65,536-row capacity admits.
func TestStaleGroupDirectoryCost(t *testing.T) {
	for _, rows := range []int{1500, 9000, 29200} {
		cat := catalog.New()
		tb := catalog.NewTable("g")
		a, b, v := tb.AddCol("a", catalog.TInt), tb.AddCol("b", catalog.TInt), tb.AddCol("v", catalog.TInt)
		r := xrand.New(0x57a1e)
		for i := 0; i < rows; i++ {
			a.Data = append(a.Data, r.Int64Range(0, 8))
			b.Data = append(b.Data, r.Int64Range(0, 16))
			v.Data = append(v.Data, r.Int64Range(0, 200))
		}
		cat.Add(tb)
		svc := NewService(cat, DefaultOptions(), 0)
		se := svc.NewSession()
		const sql = "select a, b, sum(v) as s, count(*) as n from g group by a, b"
		p1, err := se.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		// Every appended row is a new group: b starts past the loaded
		// values, and both keys stay in one byte.
		cols := make([][]int64, 3)
		for i := 0; i < tb.RowCap()-rows; i++ {
			cols[0] = append(cols[0], int64(i%256))
			cols[1] = append(cols[1], int64(17+i/256))
			cols[2] = append(cols[2], int64(i%200))
		}
		if _, err := svc.AppendCols("g", cols); err != nil {
			t.Fatal(err)
		}
		p2, err := se.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		if p2.Compiled != p1.Compiled {
			t.Fatal("the append recompiled the statement")
		}
		stale, err := se.Run(p2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Execute(p2.Compiled.Plan)
		if err != nil {
			t.Fatal(err)
		}
		rowsEqual(t, stale.Rows, want, false)
		fresh, err := NewCompiler(cat, DefaultOptions()).CompileSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		fres, err := New(cat, DefaultOptions()).Run(fresh, nil)
		if err != nil {
			t.Fatal(err)
		}
		var staleDir, freshDir int64
		for _, ht := range p1.Compiled.Layout.HT {
			staleDir = ht.DirSlots
		}
		for _, ht := range fresh.Layout.HT {
			freshDir = ht.DirSlots
		}
		g := len(want)
		ratio := float64(stale.WallCycles) / float64(fres.WallCycles)
		t.Logf("%d rows, capacity %d, %d groups: stale %d slots %d cycles, fresh %d slots %d cycles: %.2fx",
			rows, tb.RowCap(), g, staleDir, stale.WallCycles, freshDir, fres.WallCycles, ratio)
		if staleDir != 512 {
			t.Errorf("%d rows: %d directory slots at compile, want 512", rows, staleDir)
		}
		if limit := 1 + float64(g)/4096; ratio > limit {
			t.Errorf("%d groups: the stale artifact runs %.2fx the fresh compile's cycles, above %.2fx", g, ratio, limit)
		}
	}
}
