package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/plan"
	"repro/internal/queries"
)

// TestChainWalksExitWhereNoEntryCanMatch pins where the generated hash
// chain walks end, over every suite plan's pipeline functions:
//
//   - a join on a unique build key leaves its chain at the first match:
//     its contProbe is entered only from its own loopHashChain, on a key
//     mismatch, and never from the match path;
//   - a group-by whose keys are all constants has one group, so it has no
//     findGroup or contFind block: a non-null directory slot is the group;
//   - a join on a non-unique build key (fig10-opt's join partsupp) still
//     resumes its chain after a match.
func TestChainWalksExitWhereNoEntryCanMatch(t *testing.T) {
	e := New(testCatalog(t), DefaultOptions())
	var unique, constGroups int
	resumed := false
	for _, w := range queries.Suite() {
		cq, err := e.CompileQuery(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		pc := cq.Pipe
		nodeOf := map[core.ComponentID]plan.Node{}
		for n, id := range pc.OpIDs {
			nodeOf[id] = n
		}
		// owner names the plan node whose code a block's terminator is.
		owner := func(b *ir.Block) plan.Node {
			for _, task := range pc.Dict.TasksOf(b.Terminator().ID) {
				if n, ok := nodeOf[pc.Dict.OperatorOf(task)]; ok {
					return n
				}
			}
			t.Fatalf("%s: block %s of %s has no operator", w.Name, b.Name, b.Func.Name)
			return nil
		}
		for _, p := range pc.Pipelines {
			for _, b := range pc.Module.FuncByName(p.Func).Blocks {
				switch b.Name {
				case "contProbe":
					j, ok := owner(b).(*plan.Join)
					if !ok {
						t.Fatalf("%s: contProbe of %s is not a join's", w.Name, owner(b).Describe())
					}
					chain := b.Terminator().Targets[0]
					fromMatch := false
					for _, pred := range b.Preds {
						fromMatch = fromMatch || pred != chain
					}
					switch {
					case j.BuildUnique && fromMatch:
						t.Errorf("%s: %s has a unique build key, but its match path resumes the chain at contProbe", w.Name, j.Describe())
					case j.BuildUnique:
						unique++
					case !fromMatch:
						t.Errorf("%s: %s has a non-unique build key, but no match path resumes its chain", w.Name, j.Describe())
					case w.Name == "fig10-opt" && j.Label == "join partsupp":
						resumed = true
					}
				case "findGroup", "contFind":
					if g, ok := owner(b).(*plan.GroupBy); ok && allConst(g.Keys) {
						t.Errorf("%s: constant-key %s walks a chain (%s in %s)", w.Name, g.Describe(), b.Name, b.Func.Name)
					}
				case "groupFound":
					if g, ok := owner(b).(*plan.GroupBy); ok && allConst(g.Keys) {
						constGroups++
					}
				}
			}
		}
	}
	if unique == 0 || constGroups == 0 || !resumed {
		t.Fatalf("suite covers %d unique-key probes and %d constant-key group-bys, fig10-opt's join partsupp resumes: %v; want all",
			unique, constGroups, resumed)
	}
	t.Logf("%d unique-key probes exit at their first match, %d constant-key group-bys skip the chain", unique, constGroups)
}

func allConst(keys []plan.PExpr) bool {
	for _, k := range keys {
		if _, ok := k.(*plan.PConst); !ok {
			return false
		}
	}
	return true
}
