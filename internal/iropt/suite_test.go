package iropt_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/iropt"
	"repro/internal/queries"
)

// journal records lineage reports in order.
type journal []string

func (j *journal) Derived(id int, srcs ...int) { *j = append(*j, fmt.Sprint("derived ", id, srcs)) }
func (j *journal) Replaced(old, new int)       { *j = append(*j, fmt.Sprint("replaced ", old, new)) }
func (j *journal) Removed(id int)              { *j = append(*j, fmt.Sprint("removed ", id)) }

// TestSuitePassesMatchReference drives the base fixpoint of Optimize pass
// by pass over two copies of every suite module as pipeline construction
// leaves it — the dense CSE and DCE on one, the oracles of
// reference_test.go on the other — and requires, after every pass, the
// same count, the same lineage reports in the same order and the same
// printed module (instruction IDs included).
func TestSuitePassesMatchReference(t *testing.T) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 7})
	opts := engine.DefaultOptions()
	opts.Optimize = iropt.Options{} // hand back unoptimized modules
	e := engine.New(cat, opts)
	module := func(w queries.Workload) *ir.Module {
		cq, err := e.CompileQuery(w.Query) // deterministic: both copies carry the same IDs
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		return cq.Pipe.Module
	}
	for _, w := range queries.Suite() {
		dense, ref := module(w), module(w)
		var dj, rj journal
		same := func(pass string, dn, rn int) {
			t.Helper()
			if dn != rn {
				t.Fatalf("%s: %s changed %d instructions, oracle %d", w.Name, pass, dn, rn)
			}
			if !reflect.DeepEqual(dj, rj) {
				t.Fatalf("%s: %s lineage differs from the oracle's", w.Name, pass)
			}
			if d, r := dense.Print(nil), ref.Print(nil); d != r {
				t.Fatalf("%s: module differs from the oracle's after %s:\n%s\n--- oracle ---\n%s", w.Name, pass, d, r)
			}
			if err := iropt.DiffCountUses(dense); err != nil {
				t.Fatalf("%s: after %s: %v", w.Name, pass, err)
			}
		}
		for round := 0; ; round++ {
			folded := iropt.ConstFold(dense, &dj)
			same("fold", folded, iropt.ConstFold(ref, &rj))
			merged := iropt.CSE(dense, &dj)
			same("cse", merged, iropt.RefCSE(ref, &rj))
			removed := iropt.DCE(dense, &dj)
			same("dce", removed, iropt.RefDCE(ref, &rj))
			if folded+merged+removed == 0 {
				if round == 0 {
					t.Fatalf("%s: nothing to optimize — the test compares nothing", w.Name)
				}
				break
			}
		}
		if len(dj) == 0 {
			t.Fatalf("%s: no lineage reported", w.Name)
		}
	}
}
