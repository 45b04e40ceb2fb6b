package engine

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/queries"
	"repro/internal/ref"
)

// kernelFuncs lists the scatter, merge and place functions of every
// partitioned sink of pc.
func kernelFuncs(pc *pipeline.Compiled) []string {
	var fns []string
	for _, p := range pc.Pipelines {
		if mi := p.Merge; mi != nil {
			fns = append(fns, mi.ScatterFunc, mi.MergeFunc)
			if mi.PlaceFunc != "" {
				fns = append(fns, mi.PlaceFunc)
			}
		}
	}
	return fns
}

// TestSerialProgramIsPrefixOfParallel: a compile of every suite plan and
// SQL statement produces the serial program only — no kernel function in
// its module or program, no IR of a merge task in its dictionary — and
// the parallel program extends it: its functions, code, debug map, spill
// slots, Log A and Log B begin with the serial program's, unchanged, and
// building it leaves the serial program as it was.
func TestSerialProgramIsPrefixOfParallel(t *testing.T) {
	e := New(testCatalog(t), DefaultOptions())
	var kernels int
	for _, w := range append(queries.Suite(), queries.SQLSuite()...) {
		t.Run(w.Name, func(t *testing.T) {
			cq, err := e.CompileQuery(w.Query)
			if err != nil {
				t.Fatal(err)
			}
			pc, code, dict := cq.Pipe, cq.Code, cq.Pipe.Dict
			fns := kernelFuncs(pc)
			kernels += len(fns)
			if len(fns) > 0 != pc.HasKernels() {
				t.Fatalf("%d kernel functions registered, HasKernels %v", len(fns), pc.HasKernels())
			}
			for _, fn := range fns {
				if pc.Module.FuncByName(fn) != nil || slices.ContainsFunc(code.Program.Funcs, func(s isa.FuncSym) bool { return s.Name == fn }) {
					t.Fatalf("the serial program has %s", fn)
				}
			}
			for _, id := range dict.IRIDs() {
				for _, task := range dict.TasksOf(id) {
					if c, _ := pc.Registry.Lookup(task); pipeline.MergeRole(c.Kind) {
						t.Fatalf("the serial dictionary links %%%d to merge task %s", id, c.Name)
					}
				}
			}
			entries, journal, maxID := dict.Entries(), len(dict.Journal()), pc.Module.MaxID()
			native := slices.Clone(code.Program.Code)

			par, err := cq.Parallel()
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := cq.Parallel(); again != par {
				t.Fatal("a second Parallel built another program")
			}
			if !pc.HasKernels() {
				if par.Module != pc.Module || par.Dict != dict || par.Code != code {
					t.Fatal("a plan without kernels runs a parallel program other than its serial one")
				}
				return
			}
			if err := isPrefix(cq.serial(), *par); err != nil {
				t.Fatal(err)
			}
			for _, fn := range fns {
				f := par.Module.FuncByName(fn)
				if f == nil || !slices.ContainsFunc(par.Code.Program.Funcs, func(s isa.FuncSym) bool { return s.Name == fn }) {
					t.Fatalf("the parallel program lacks %s", fn)
				}
				if id := f.Blocks[0].Instrs[0].ID; id <= maxID {
					t.Fatalf("%s begins at IR %%%d, inside the serial program's IDs (max %d)", fn, id, maxID)
				}
			}
			if dict.Entries() != entries || len(dict.Journal()) != journal || pc.Module.MaxID() != maxID ||
				!slices.Equal(code.Program.Code, native) {
				t.Fatal("building the parallel program changed the serial one")
			}
		})
	}
	if kernels == 0 {
		t.Fatal("no plan has a partitioned sink")
	}
}

// isPrefix reports where the parallel program p fails to begin with the
// serial program s, or nil when it does.
func isPrefix(s, p Program) error {
	n := len(s.Code.Program.Code)
	switch {
	case len(p.Code.Program.Code) <= n:
		return fmt.Errorf("parallel program has %d instructions, the serial one %d", len(p.Code.Program.Code), n)
	case !slices.Equal(p.Code.Program.Code[:n], s.Code.Program.Code):
		return fmt.Errorf("the parallel program's code does not begin with the serial program's")
	case !slices.Equal(p.Code.Program.Funcs[:len(s.Code.Program.Funcs)], s.Code.Program.Funcs):
		return fmt.Errorf("the parallel program's symbols do not begin with the serial program's")
	case !slices.Equal(p.Module.Funcs[:len(s.Module.Funcs)], s.Module.Funcs):
		return fmt.Errorf("the parallel module's functions do not begin with the serial module's")
	case p.Code.SpillSlots < s.Code.SpillSlots:
		return fmt.Errorf("%d spill slots in the parallel program, %d in the serial one", p.Code.SpillSlots, s.Code.SpillSlots)
	}
	sm, pm := s.Code.NMap, p.Code.NMap
	if !reflect.DeepEqual(pm.IRs[:n], sm.IRs) || !slices.Equal(pm.Region[:n], sm.Region) ||
		!slices.Equal(pm.Routine[:n], sm.Routine) || !slices.Equal(pm.Inverted[:n], sm.Inverted) {
		return fmt.Errorf("the parallel debug map does not begin with the serial one")
	}
	sd, pd := s.Dict, p.Dict
	if !slices.Equal(pd.Tasks(), sd.Tasks()) {
		return fmt.Errorf("Log A differs")
	}
	for _, task := range sd.Tasks() {
		if pd.OperatorOf(task) != sd.OperatorOf(task) {
			return fmt.Errorf("Log A links task %d differently", task)
		}
	}
	for id := 0; id <= s.Module.MaxID(); id++ {
		if !slices.Equal(pd.TasksOf(id), sd.TasksOf(id)) || pd.IsShared(id) != sd.IsShared(id) {
			return fmt.Errorf("Log B differs at %%%d: %v, serial %v", id, pd.TasksOf(id), sd.TasksOf(id))
		}
	}
	if sj := sd.Journal(); !reflect.DeepEqual(pd.Journal()[:len(sj)], sj) {
		return fmt.Errorf("the parallel lineage journal does not begin with the serial one")
	}
	return nil
}

// TestConcurrentSessionsBuildKernelsOnce: eight sessions run one cached
// artifact at once with two workers and two shards. The first parallel run
// of an artifact compiles its merge kernels; here all eight race to it,
// and every run must end on the one program that was built, return the
// reference executor's rows, and produce the same rows, samples and
// canonical profile as every other run. The race job runs it under -race.
func TestConcurrentSessionsBuildKernelsOnce(t *testing.T) {
	const sessions = 8
	const sql = "select o_custkey, sum(l_quantity) as q, count(*) as n from orders, lineitem " +
		"where o_orderkey = l_orderkey and l_quantity < 30 group by o_custkey order by o_custkey"
	svc := NewService(testCatalog(t), DefaultOptions(), 0)
	p, err := svc.NewSession().Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	cq := p.Compiled
	if !cq.Pipe.HasKernels() {
		t.Fatal("the statement has no partitioned sink")
	}
	var params []int64
	if p.State != nil {
		params = p.State.Params
	}
	want, err := ref.ExecuteWith(cq.Plan, params)
	if err != nil {
		t.Fatal(err)
	}

	type run struct {
		cq              *Compiled
		prog            *Program
		rows, canonical string
		samples         []core.Sample
	}
	runs := make([]run, sessions)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for s := range runs {
		se := svc.NewSession()
		se.SetWorkers(2)
		se.SetShards(2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, res, err := se.Execute(sql, pgoSampling())
			if err != nil {
				t.Errorf("session %d: %v", s, err)
				return
			}
			if !ref.SameRows(res.Rows, want, true) {
				t.Errorf("session %d: rows differ from the reference executor's", s)
			}
			runs[s] = run{p.Compiled, res.Program(), fmt.Sprint(res.Rows), string(res.Profile.Canonical()), res.Samples}
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	par, err := cq.Parallel()
	if err != nil {
		t.Fatal(err)
	}
	for s, r := range runs {
		switch {
		case r.cq != cq:
			t.Errorf("session %d ran another artifact than the cached one", s)
		case r.prog.Code != par.Code || r.prog.Dict != par.Dict || r.prog.Module != par.Module:
			t.Errorf("session %d ran a parallel program other than the one built", s)
		case r.rows != runs[0].rows || r.canonical != runs[0].canonical || !reflect.DeepEqual(r.samples, runs[0].samples):
			t.Errorf("session %d: rows, samples or profile differ from session 0's", s)
		}
	}
	if err := isPrefix(cq.serial(), *par); err != nil {
		t.Error(err)
	}
}
