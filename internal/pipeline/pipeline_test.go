package pipeline

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/iropt"
	"repro/internal/plan"
)

// fixture builds a two-table join+group-by plan with a hand-made layout.
func fixture(t *testing.T) (*plan.Output, *Layout) {
	t.Helper()
	cat := catalog.New()
	products := catalog.NewTable("products")
	pid := products.AddCol("id", catalog.TInt)
	pid.Unique = true
	pcat := products.AddCol("category", catalog.TInt)
	sales := catalog.NewTable("sales")
	sid := sales.AddCol("id", catalog.TInt)
	sval := sales.AddCol("value", catalog.TInt)
	for i := 0; i < 8; i++ {
		pid.Data = append(pid.Data, int64(i+1))
		pcat.Data = append(pcat.Data, int64(i%2))
		sid.Data = append(sid.Data, int64(i%8+1))
		sval.Data = append(sval.Data, int64(i*10))
	}
	cat.Add(products)
	cat.Add(sales)

	q := &plan.Query{
		Tables: []plan.TableRef{{Name: "sales", Alias: "s"}, {Name: "products", Alias: "p"}},
		Where: []plan.Expr{
			plan.Eq(plan.Col("s.id"), plan.Col("p.id")),
			plan.Eq(plan.Col("p.category"), plan.Num(1)),
		},
		Select: []plan.SelectItem{
			{Expr: plan.Col("s.id")},
			{Expr: &plan.Agg{Fn: plan.AggSum, Arg: plan.Col("s.value")}, Alias: "v"},
		},
		GroupBy: []plan.Expr{plan.Col("s.id")},
		Limit:   -1,
		Hints:   plan.Hints{NoGroupJoin: true},
	}
	out, err := plan.Plan(cat, q)
	if err != nil {
		t.Fatal(err)
	}

	lay := &Layout{
		StateBase:  1 << 16,
		Cols:       map[ColKey]ColRegion{},
		RowsSlots:  map[string]int{},
		HT:         map[plan.Node]*HTLayout{},
		ResultDesc: 1 << 17,
	}
	slot := 0
	cols := int64(1 << 20)
	hts := int64(1 << 18)
	plan.Walk(out, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Scan:
			for _, ci := range x.Cols {
				lay.Cols[ColKey{Alias: x.Alias, Col: ci}] = ColRegion{Addr: cols, Width: 8}
				cols += 1 << 14
			}
			lay.RowsSlots[x.Alias] = slot
			slot++
		default:
			if Materializes(n) {
				lay.HT[n] = &HTLayout{
					Desc: hts, Dir: hts + 64, DirSlots: 16,
					Arena: hts + 1024, ArenaEnd: hts + 8192,
					EntrySize: EntrySize(n),
				}
				hts += 1 << 14
			}
		}
	})
	return out, lay
}

func TestPipelineSplitting(t *testing.T) {
	out, lay := fixture(t)
	cd, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}
	// Three pipelines: build (products scan), probe (sales scan), and
	// the group-by output scan — the paper's Fig. 8 decomposition.
	if len(cd.Pipelines) != 3 {
		t.Fatalf("pipelines = %d", len(cd.Pipelines))
	}
	kinds := func(i int) []string {
		var out []string
		for _, tid := range cd.Pipelines[i].Tasks {
			out = append(out, cd.Registry.Get(tid).Kind)
		}
		return out
	}
	if got := kinds(0); !contains(got, "scan") || !contains(got, "filter") || !contains(got, "build") {
		t.Fatalf("build pipeline tasks = %v", got)
	}
	if got := kinds(1); !contains(got, "probe") || !contains(got, "aggregate") {
		t.Fatalf("probe pipeline tasks = %v", got)
	}
	if got := kinds(2); !contains(got, "htscan") || !contains(got, "output") {
		t.Fatalf("output pipeline tasks = %v", got)
	}
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// TestLogACoversEveryTask: every task maps to its operator (Log A).
func TestLogACoversEveryTask(t *testing.T) {
	out, lay := fixture(t)
	cd, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range cd.Registry.ByLevel(core.LevelTask) {
		op := cd.Dict.OperatorOf(task.ID)
		if op == core.NoComponent {
			t.Errorf("task %s has no Log A link", task.Name)
			continue
		}
		if cd.Registry.Get(op).Level != core.LevelOperator {
			t.Errorf("task %s links to non-operator %s", task.Name, cd.Registry.Name(op))
		}
	}
}

// TestLogBCoversEveryInstruction: every generated IR instruction is linked
// to at least one task (Log B) — the property attribution depends on.
func TestLogBCoversEveryInstruction(t *testing.T) {
	out, lay := fixture(t)
	cd, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}
	missing := 0
	cd.Module.ForEachInstr(func(f *ir.Func, _ *ir.Block, in *ir.Instr) {
		if len(cd.Dict.TasksOf(in.ID)) == 0 {
			missing++
			t.Errorf("%s: %%%d (%s) unlinked", f.Name, in.ID, in.Op)
		}
	})
	if missing > 0 {
		t.Fatalf("%d instructions without Log B links", missing)
	}
}

// TestRegisterTaggingEmission: shared ht_insert calls must be wrapped in
// gettag/settag/settag (Listing 2), and only when tagging is enabled.
func TestRegisterTaggingEmission(t *testing.T) {
	out, lay := fixture(t)

	count := func(opts Options) (settags, gettags, calls int) {
		cd, err := Compile(out, lay, opts)
		if err != nil {
			t.Fatal(err)
		}
		cd.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
			switch {
			case in.Op == ir.OpSetTag:
				settags++
			case in.Op == ir.OpGetTag:
				gettags++
			case in.Op == ir.OpCall && in.Callee == codegen.SymHTInsert:
				calls++
			}
		})
		return
	}

	st, gt, calls := count(Options{RegisterTagging: true})
	if calls == 0 {
		t.Fatal("no ht_insert calls generated")
	}
	if st != 2*calls || gt != calls {
		t.Fatalf("tagging shape: %d settag / %d gettag for %d calls (want 2n/n)", st, gt, calls)
	}
	st, gt, _ = count(Options{RegisterTagging: false})
	if st != 0 || gt != 0 {
		t.Fatal("tag writes emitted with tagging disabled")
	}
}

// TestTagEverythingInsertsBoundaries checks the §6.3 validation mode:
// Compile marks the module, and the optimizer, passes or none, places the
// tag writes after its last pass.
func TestTagEverythingInsertsBoundaries(t *testing.T) {
	out, lay := fixture(t)
	plain, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := Compile(out, lay, Options{RegisterTagging: true, TagEverything: true})
	if err != nil {
		t.Fatal(err)
	}
	if !tagged.Module.TagEverything || plain.Module.TagEverything {
		t.Fatal("Compile did not mark only the tag-everything module")
	}
	for _, cd := range []*Compiled{plain, tagged} {
		if _, err := iropt.Optimize(cd.Module, cd.Dict, iropt.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	countSetTags := func(cd *Compiled) int {
		n := 0
		cd.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
			if in.Op == ir.OpSetTag {
				n++
			}
		})
		return n
	}
	if countSetTags(tagged) <= countSetTags(plain) {
		t.Fatal("TagEverything added no tag writes")
	}
	if err := tagged.Module.Verify(); err != nil {
		t.Fatalf("tag-everything IR invalid: %v", err)
	}
}

func TestTagEverythingRequiresRegisterTagging(t *testing.T) {
	out, lay := fixture(t)
	if _, err := Compile(out, lay, Options{TagEverything: true}); err == nil {
		t.Fatal("expected error")
	}
}

func TestEntrySizes(t *testing.T) {
	j := &plan.Join{Payload: []int{0, 1}}
	if EntrySize(j) != 16+8+16 {
		t.Fatalf("join entry = %d", EntrySize(j))
	}
	x, y := &plan.PCol{Pos: 1}, &plan.PCol{Pos: 2}
	// avg(x) keeps a sum and a count; sum(y) a sum of its own.
	g := &plan.GroupBy{Keys: []plan.PExpr{&plan.PCol{Pos: 0}}, Aggs: []plan.AggSpec{{Fn: plan.AggAvg, Arg: x}, {Fn: plan.AggSum, Arg: y}}}
	if EntrySize(g) != 16+8+16+8 {
		t.Fatalf("groupby entry = %d", EntrySize(g))
	}
	// sum(x) shares avg(x)'s sum, count(*) its count.
	g.Aggs = append(g.Aggs, plan.AggSpec{Fn: plan.AggSum, Arg: &plan.PCol{Pos: 1}}, plan.AggSpec{Fn: plan.AggCount})
	if EntrySize(g) != 16+8+16+8 {
		t.Fatalf("groupby entry with shared state = %d", EntrySize(g))
	}
	g2 := &plan.GroupBy{Keys: []plan.PExpr{&plan.PCol{Pos: 0}, &plan.PCol{Pos: 1}}, Aggs: []plan.AggSpec{{Fn: plan.AggSum, Arg: x}}}
	if EntrySize(g2) != 16+16+8 {
		t.Fatalf("two-key groupby entry = %d", EntrySize(g2))
	}
	// A group join's count(*) is its match count.
	gj := &plan.GroupJoin{Aggs: []plan.AggSpec{{Fn: plan.AggCount}}}
	if EntrySize(gj) != 16+8+8 {
		t.Fatalf("groupjoin entry = %d", EntrySize(gj))
	}
	gj.Aggs = append(gj.Aggs, plan.AggSpec{Fn: plan.AggMax, Arg: x})
	if EntrySize(gj) != 16+8+8+8 {
		t.Fatalf("groupjoin entry with max = %d", EntrySize(gj))
	}
	if EntrySize(&plan.Scan{}) != 0 || Materializes(&plan.Scan{}) {
		t.Fatal("scan should not materialize")
	}
}

func TestDirSlotsPowerOfTwo(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 5000} {
		s := DirSlots(n)
		if s <= 0 || s&(s-1) != 0 {
			t.Fatalf("DirSlots(%d) = %d not a power of two", n, s)
		}
		if n > 8 && s < int64(n) {
			t.Fatalf("DirSlots(%d) = %d too small", n, s)
		}
	}
}

// TestAggOffsets: each distinct piece of aggregate state gets one slot,
// in first-use order, and each aggregate reads its value from its slot.
func TestAggOffsets(t *testing.T) {
	x := &plan.PBin{Op: plan.OpMul, L: &plan.PCol{Pos: 1}, R: &plan.PConst{Val: 3}}
	aggs := []plan.AggSpec{
		{Fn: plan.AggSum, Arg: &plan.PCol{Pos: 0}},
		{Fn: plan.AggAvg, Arg: x},
		{Fn: plan.AggMax, Arg: &plan.PCol{Pos: 0}},
		{Fn: plan.AggSum, Arg: &plan.PBin{Op: plan.OpMul, L: &plan.PCol{Pos: 1}, R: &plan.PConst{Val: 3}}},
		{Fn: plan.AggCount},
		{Fn: plan.AggAvg, Arg: &plan.PCol{Pos: 0}},
		{Fn: plan.AggMax, Arg: &plan.PCol{Pos: 0}},
	}
	st := newStateSlots(aggs, 100, false)
	type slot struct {
		fn  plan.AggFn
		off int64
	}
	var got []slot
	for _, s := range st {
		got = append(got, slot{s.Fn, s.Off})
	}
	want := []slot{{plan.AggSum, 100}, {plan.AggSum, 108}, {plan.AggCount, 116}, {plan.AggMax, 124}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("slots = %v, want %v", got, want)
	}
	// Each aggregate reads its value from its slot: the sums and the max
	// of $0 and of $1 * 3, and the count.
	for i, w := range []int{0, 1, 3, 1, 2, 0, 3} {
		fn, arg := piece(aggs[i])
		if k := slotOf(st, fn, arg); k != w {
			t.Errorf("aggregate %d reads slot %d, want %d", i, k, w)
		}
	}
	if n := stateBytes(aggs, false); n != 8*int64(len(st)) {
		t.Fatalf("stateBytes = %d, layout has %d slots", n, len(st))
	}
	if a := testing.AllocsPerRun(10, func() { stateBytes(aggs, false) }); a != 0 {
		t.Errorf("stateBytes allocates %.0f times", a)
	}
	// A group join's zone starts with its match count.
	gj := newStateSlots(aggs[:2], 24, true)
	got = got[:0]
	for _, s := range gj {
		got = append(got, slot{s.Fn, s.Off})
	}
	if want := []slot{{plan.AggCount, 24}, {plan.AggSum, 32}, {plan.AggSum, 40}}; !reflect.DeepEqual(got, want) {
		t.Fatalf("group-join slots = %v, want %v", got, want)
	}
	if n := stateBytes(aggs[:2], true); n != 24 {
		t.Fatalf("group-join stateBytes = %d, want 24", n)
	}
}

// TestListingStructure: the probe pipeline's IR reproduces the block
// structure of the paper's Listing 1.
func TestListingStructure(t *testing.T) {
	out, lay := fixture(t)
	cd, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}
	probe := cd.Module.FuncByName("pipeline1")
	if probe == nil {
		t.Fatal("no pipeline1")
	}
	text := probe.Print(nil)
	for _, want := range []string{"loopTuples", "loopHashChain", "contProbe", "nextTuple", "crc32", "phi"} {
		if !strings.Contains(text, want) {
			t.Errorf("probe pipeline missing %q:\n%s", want, text)
		}
	}
}

// TestMainCallsPipelinesInOrder: the prelude (directory memsets) runs
// first, then builds before probes.
func TestMainCallsPipelinesInOrder(t *testing.T) {
	out, lay := fixture(t)
	cd, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}
	main := cd.Module.FuncByName("main")
	var calls []string
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				calls = append(calls, in.Callee)
			}
		}
	}
	// Prelude first, then pipeline0..2 in order.
	want := []string{PreludeFunc, "pipeline0", "pipeline1", "pipeline2"}
	if len(calls) != len(want) {
		t.Fatalf("main calls = %v", calls)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Fatalf("call order = %v", calls)
		}
	}
	// The directory memsets moved into the prelude so a parallel
	// coordinator can run just the preparation.
	prelude := cd.Module.FuncByName(PreludeFunc)
	if prelude == nil {
		t.Fatal("no prelude function")
	}
	memsets := 0
	for _, b := range prelude.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				if in.Callee != codegen.SymMemset64 {
					t.Fatalf("unexpected prelude call %q", in.Callee)
				}
				memsets++
			}
		}
	}
	if memsets != 2 { // join dir + group-by dir
		t.Fatalf("memsets = %d", memsets)
	}
}
