package pipeline

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/plan"
)

// gjFixture builds a plan the optimizer fuses into a group join.
func gjFixture(t *testing.T) (*plan.Output, *Layout) {
	t.Helper()
	cat := catalog.New()
	products := catalog.NewTable("products")
	pid := products.AddCol("id", catalog.TInt)
	pid.Unique = true
	sales := catalog.NewTable("sales")
	sid := sales.AddCol("id", catalog.TInt)
	sval := sales.AddCol("value", catalog.TInt)
	for i := 0; i < 8; i++ {
		pid.Data = append(pid.Data, int64(i+1))
		sid.Data = append(sid.Data, int64(i%8+1))
		sval.Data = append(sval.Data, int64(i*10))
	}
	cat.Add(products)
	cat.Add(sales)

	q := &plan.Query{
		Tables: []plan.TableRef{{Name: "sales", Alias: "s"}, {Name: "products", Alias: "p"}},
		Where:  []plan.Expr{plan.Eq(plan.Col("s.id"), plan.Col("p.id"))},
		Select: []plan.SelectItem{
			{Expr: plan.Col("s.id")},
			{Expr: &plan.Agg{Fn: plan.AggSum, Arg: plan.Col("s.value")}, Alias: "v"},
		},
		GroupBy: []plan.Expr{plan.Col("s.id")},
		Limit:   -1,
	}
	out, err := plan.Plan(cat, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Input.(*plan.GroupJoin); !ok {
		t.Fatalf("fixture did not fuse: %T", out.Input)
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

// TestGroupJoinTaskSections verifies the §5.4 two-tracker split: the probe
// pipeline contains both a gj-join and a gj-agg task, each owning IR, so
// samples map back to the original unfused operators' sections.
func TestGroupJoinTaskSections(t *testing.T) {
	out, lay := gjFixture(t)
	cd, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}

	var joinTask, aggTask core.ComponentID
	for _, task := range cd.Registry.ByLevel(core.LevelTask) {
		switch task.Kind {
		case "gj-join":
			joinTask = task.ID
		case "gj-agg":
			aggTask = task.ID
		}
	}
	if joinTask == core.NoComponent || aggTask == core.NoComponent {
		t.Fatal("groupjoin task sections missing")
	}
	// Both sections link to the same groupjoin operator (Log A).
	if cd.Dict.OperatorOf(joinTask) != cd.Dict.OperatorOf(aggTask) {
		t.Fatal("sections belong to different operators")
	}
	if cd.Registry.Get(cd.Dict.OperatorOf(joinTask)).Kind != "groupjoin" {
		t.Fatal("sections not owned by the groupjoin")
	}
	// Each section owns IR instructions.
	counts := map[core.ComponentID]int{}
	cd.Module.ForEachInstr(func(_ *ir.Func, _ *ir.Block, in *ir.Instr) {
		for _, task := range cd.Dict.TasksOf(in.ID) {
			counts[task]++
		}
	})
	if counts[joinTask] == 0 || counts[aggTask] == 0 {
		t.Fatalf("section IR counts: join=%d agg=%d", counts[joinTask], counts[aggTask])
	}

	// The probe pipeline's IR shows the gjChain structure.
	probe := cd.Module.FuncByName("pipeline1")
	text := probe.Print(nil)
	for _, want := range []string{"gjChain", "gjFound", "gjCont"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing block %q:\n%s", want, text)
		}
	}
}

// TestGroupJoinPipelineCount: fused plans produce three pipelines (build,
// probe, output scan), same as the unfused shape — fusion removes an
// entire hash table, not a pipeline.
func TestGroupJoinPipelineCount(t *testing.T) {
	out, lay := gjFixture(t)
	cd, err := Compile(out, lay, Options{RegisterTagging: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(cd.Pipelines) != 3 {
		t.Fatalf("pipelines = %d", len(cd.Pipelines))
	}
	if len(lay.HT) != 1 {
		t.Fatalf("group join should own exactly one hash table, got %d", len(lay.HT))
	}
}
