package engine

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/sqlparse"
	"repro/internal/vm"
)

// TestHoistedLoadsStayInColumnRegions: code motion lifts a probe-side key
// load out of the match block of the join below it, into the scan's tuple
// body. Run at an epoch where the scanned table has zero rows, at one
// where it is partly filled and at one where it is filled to the capacity
// its column regions reserve, every executed moved load reads inside its
// column's region; at full capacity, the current epoch, the rows equal
// the reference executor's. Loads are sampled at period 1, so every
// executed load is seen.
func TestHoistedLoadsStayInColumnRegions(t *testing.T) {
	cat := catalog.New()
	fact := catalog.NewTable("fact")
	fact.AddCol("a", catalog.TInt)
	fact.AddCol("b", catalog.TInt)
	cat.Add(fact)
	many := catalog.NewTable("many") // three rows per key: each probe matches thrice
	many.AddCol("k", catalog.TInt).Data = []int64{1, 1, 1, 2, 2, 2, 3, 3, 3}
	many.AddCol("w", catalog.TInt).Data = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	cat.Add(many)
	uniq := catalog.NewTable("uniq")
	uk := uniq.AddCol("k", catalog.TInt)
	uk.Unique = true
	uk.Data = []int64{0, 1, 2, 3, 4, 5, 6, 7}
	uniq.AddCol("v", catalog.TInt).Data = []int64{10, 11, 12, 13, 14, 15, 16, 17}
	cat.Add(uniq)

	empty := cat.Snapshot()
	fill := func(n int) {
		t.Helper()
		a, b := make([]int64, n), make([]int64, n)
		for i := range a {
			a[i], b[i] = int64(1+i%4), int64(i%8)
		}
		res, err := cat.AppendCols("fact", [][]int64{a, b})
		if err != nil || res.Grew {
			t.Fatalf("append %d rows: grew=%v, %v", n, res.Grew, err)
		}
	}
	fill(300)

	// fig10-opt's shape: the fact scan probes the join with three matches
	// per row first, and that join's match block probes the next one.
	q, err := sqlparse.Parse("select f.b, m.w, u.v from fact f, many m, uniq u where f.a = m.k and f.b = u.k")
	if err != nil {
		t.Fatal(err)
	}
	q.Hints = plan.Hints{ProbeBase: "f", ProbeOrder: []string{"m", "u"}}
	e := New(cat, DefaultOptions())
	cq, err := e.CompileQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if cq.OptStats.Hoisted == 0 {
		t.Fatalf("nothing hoisted: the test exercises no moved load\n%s", cq.Pipe.Module.Print(nil))
	}
	moved := movedInvariantLoads(t, cq)
	if len(moved) == 0 {
		t.Fatalf("no column load moved (%+v)\n%s", cq.OptStats, cq.Pipe.Module.Print(nil))
	}

	capRows := fact.RowCap()
	for _, tc := range []struct {
		name string
		snap *catalog.Snapshot
		rows int
	}{
		{"zero rows", empty, 0},
		{"partly filled", cat.Snapshot(), 300},
		{"full capacity", nil, capRows},
	} {
		if tc.snap == nil {
			fill(capRows - fact.Rows())
			tc.snap = cat.Snapshot()
		}
		if got := tc.snap.View("fact").Rows; got != tc.rows {
			t.Fatalf("%s: fact has %d rows, want %d", tc.name, got, tc.rows)
		}
		cfg := &pmu.Config{Event: vm.EvMemLoads, Period: 1, NoJitter: true, Format: pmu.FormatIPTime}
		res, err := (&executor{Opts: e.Opts}).run(cq, &RunState{Snap: tc.snap}, 1, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		executed := 0
		for _, s := range res.Samples {
			if s.IP >= len(cq.Code.NMap.IRs) || cq.Code.NMap.Region[s.IP] != core.RegionGenerated {
				continue
			}
			for _, id := range cq.Code.NMap.IRs[s.IP] {
				w, ok := moved[id]
				if !ok {
					continue
				}
				executed++
				if r := cq.Mem.RegionAt(s.Addr, w); r == nil || r.Name != "col" {
					t.Errorf("%s: moved load %%%d read [%d, %d), outside every column region", tc.name, id, s.Addr, s.Addr+w)
				}
			}
		}
		if (executed == 0) != (tc.rows == 0) {
			t.Errorf("%s: %d executions of moved loads over %d rows", tc.name, executed, tc.rows)
		}
		if tc.rows == capRows { // the reference executor reads the current epoch
			want, err := ref.ExecuteWith(cq.Plan, nil)
			if err != nil {
				t.Fatal(err)
			}
			rowsEqual(t, res.Rows, want, false)
		}
	}
}

// movedInvariantLoads returns, by IR ID, the access width of every column
// load the optimizer placed in another block than an unhoisted compile of
// the same plan does.
func movedInvariantLoads(t *testing.T, cq *Compiled) map[int]int64 {
	t.Helper()
	opts := DefaultOptions()
	opts.Optimize.Hoist = false
	still, err := New(cq.cat, opts).CompilePlanGuided(cq.Plan, nil)
	if err != nil {
		t.Fatal(err)
	}
	home := map[int]string{}
	still.Pipe.Module.ForEachInstr(func(_ *ir.Func, b *ir.Block, in *ir.Instr) { home[in.ID] = b.Name })
	moved := map[int]int64{}
	cq.Pipe.Module.ForEachInstr(func(_ *ir.Func, b *ir.Block, in *ir.Instr) {
		if in.Invariant && home[in.ID] != "" && home[in.ID] != b.Name {
			moved[in.ID] = map[ir.Op]int64{ir.OpLoad8: 1, ir.OpLoad16: 2, ir.OpLoad32: 4, ir.OpLoad64: 8}[in.Op]
		}
	})
	return moved
}

// TestParameterLoadsAreInvariant: every load of a bound parameter carries
// the ir.Instr.Invariant mark, which lets code motion move it. The
// artifact golden compiles statements with their literals inline, so this
// test prepares the SQL suite through a service, which lifts literals into
// parameters, and checks each parameter load of each artifact.
func TestParameterLoadsAreInvariant(t *testing.T) {
	se := NewService(testCatalog(t), DefaultOptions(), 0).NewSession()
	loads := 0
	for _, w := range queries.SQLSuite() {
		p, err := se.Prepare(w.SQL)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		cq := p.Compiled
		lo, hi := cq.Layout.ParamBase, cq.Layout.ParamBase+8*int64(len(cq.Plan.Params))
		cq.Pipe.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
			if !in.Op.IsLoad() || in.Args[0].Op != ir.OpConst || in.Args[0].Imm < lo || in.Args[0].Imm >= hi {
				return
			}
			loads++
			if !in.Invariant {
				t.Errorf("%s: parameter load %%%d of [%d] is not marked invariant", w.Name, in.ID, in.Args[0].Imm)
			}
		})
	}
	if loads == 0 {
		t.Fatal("no SQL suite statement loads a bound parameter")
	}
	t.Logf("%d parameter loads, all marked", loads)
}
