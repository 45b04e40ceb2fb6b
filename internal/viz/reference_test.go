package viz

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/vm"
)

// refAnnotator is the IR annotator as it stood before it appended into the
// listing's buffer, kept verbatim as the oracle (only its name changed):
// fmt per percentage, an owner-name slice per instruction, a map and
// sort.Slice per block header.
type refAnnotator struct {
	p  *core.Profile
	pc *pipeline.Compiled
}

func (a *refAnnotator) Prefix(in *ir.Instr) string {
	w := a.p.IRWeight[in.ID]
	if w == 0 {
		return ""
	}
	return fmt.Sprintf("%.1f%%", 100*w/float64(a.p.TotalSamples))
}

func (a *refAnnotator) Suffix(in *ir.Instr) string {
	tasks := a.p.Dict.TasksOf(in.ID)
	if len(tasks) == 0 {
		return ""
	}
	names := make([]string, 0, len(tasks))
	for _, t := range tasks {
		op := a.p.Dict.OperatorOf(t)
		if op != core.NoComponent {
			names = append(names, a.p.Registry.Name(op))
		}
	}
	return strings.Join(names, ", ")
}

func (a *refAnnotator) BlockHeader(b *ir.Block) string {
	// Aggregate the block's samples per operator (the "(tablescan 2.4%
	// hash join 45.7%)" headers of Fig. 6b).
	byOp := map[core.ComponentID]float64{}
	for _, in := range b.Instrs {
		w := a.p.IRWeight[in.ID]
		if w == 0 {
			continue
		}
		tasks := a.p.Dict.TasksOf(in.ID)
		for _, t := range tasks {
			byOp[a.p.Dict.OperatorOf(t)] += w / float64(len(tasks))
		}
	}
	if len(byOp) == 0 {
		return ""
	}
	type kv struct {
		id core.ComponentID
		w  float64
	}
	var list []kv
	for id, w := range byOp {
		list = append(list, kv{id, w})
	}
	// Ties break on component ID: the list comes out of a map, and the
	// rendering must not depend on its iteration order.
	sort.Slice(list, func(i, j int) bool {
		if list[i].w != list[j].w {
			return list[i].w > list[j].w
		}
		return list[i].id < list[j].id
	})
	parts := make([]string, len(list))
	for i, e := range list {
		parts[i] = fmt.Sprintf("%s %.1f%%", a.p.Registry.Name(e.id), 100*e.w/float64(a.p.TotalSamples))
	}
	return "(" + strings.Join(parts, " ") + ")"
}

// refStrings adapts the oracle to ir.Annotator; ir's TestPrintMatchesReference
// holds the printer itself to the fmt-based one over such annotators.
type refStrings struct{ a *refAnnotator }

func (s refStrings) AppendPrefix(dst []byte, in *ir.Instr) []byte {
	return append(dst, s.a.Prefix(in)...)
}
func (s refStrings) AppendSuffix(dst []byte, in *ir.Instr) []byte {
	return append(dst, s.a.Suffix(in)...)
}
func (s refStrings) AppendBlockHeader(dst []byte, b *ir.Block) []byte {
	return append(dst, s.a.BlockHeader(b)...)
}

// suiteProfiles compiles every suite plan once and profiles it under each
// of the given sampling configurations.
func suiteProfiles(t *testing.T, cfgs ...pmu.Config) (cqs []*engine.Compiled, profs [][]*core.Profile) {
	t.Helper()
	eng := engine.New(datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 5}), engine.DefaultOptions())
	for _, w := range queries.Suite() {
		cq, err := eng.CompileQuery(w.Query)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var ps []*core.Profile
		for i := range cfgs {
			cfg := cfgs[i]
			res, err := eng.Run(cq, &cfg)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			ps = append(ps, res.Profile)
		}
		cqs, profs = append(cqs, cq), append(profs, ps)
	}
	return cqs, profs
}

// TestAnnotatedIRMatchesReference: over the suite plans profiled on
// cycles, on loads and with call stacks, every function's listing equals
// the oracle annotator's, byte for byte.
func TestAnnotatedIRMatchesReference(t *testing.T) {
	cqs, profs := suiteProfiles(t,
		pmu.Config{Event: vm.EvCycles, Period: 499, Format: pmu.FormatIPTimeRegs},
		pmu.Config{Event: vm.EvMemLoads, Period: 97, Format: pmu.FormatIPTimeRegs},
		pmu.Config{Event: vm.EvCycles, Period: 997, Format: pmu.FormatCallStack})
	headers := 0
	for i, cq := range cqs {
		for k, p := range profs[i] {
			ref := refStrings{&refAnnotator{p: p, pc: cq.Pipe}}
			for _, f := range cq.Pipe.Module.Funcs {
				got, want := AnnotatedIR(f, cq.Pipe, p), f.Print(ref)
				if got != want {
					t.Fatalf("%s, profile %d, %s:\n got %q\nwant %q", queries.Suite()[i].Name, k, f.Name, got, want)
				}
				headers += strings.Count(got, ": (")
			}
		}
	}
	if headers == 0 {
		t.Fatal("no listing carried a block header: the profiles are empty")
	}
	// Renders share the annotator pool: four goroutines rendering at once
	// each get the listing a lone render gives.
	cq, p := cqs[0], profs[0][0]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, f := range cq.Pipe.Module.Funcs {
					if AnnotatedIR(f, cq.Pipe, p) != f.Print(refStrings{&refAnnotator{p: p, pc: cq.Pipe}}) {
						t.Errorf("%s: a concurrent render differs from the oracle", f.Name)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// raceDetector is set when the tests run under -race, which makes
// sync.Pool drop what it is given at random.
var raceDetector bool

// TestAnnotatedIRFootprint: rendering a listing makes at most 3
// allocations however long the function is — the returned string and, at
// most, a refill of the annotator pool.
func TestAnnotatedIRFootprint(t *testing.T) {
	if raceDetector {
		t.Skip("under -race the annotator pool drops annotators at random")
	}
	cqs, profs := suiteProfiles(t, pmu.Config{Event: vm.EvCycles, Period: 499, Format: pmu.FormatIPTimeRegs})
	var short, long *ir.Func
	var shortIdx, longIdx int
	size := func(f *ir.Func) int {
		n := 0
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
		return n
	}
	for i, cq := range cqs {
		for _, f := range cq.Pipe.Module.Funcs {
			if short == nil || size(f) < size(short) {
				short, shortIdx = f, i
			}
			if long == nil || size(f) > size(long) {
				long, longIdx = f, i
			}
		}
	}
	for _, c := range []struct {
		f *ir.Func
		i int
	}{{short, shortIdx}, {long, longIdx}} {
		allocs := testing.AllocsPerRun(20, func() { AnnotatedIR(c.f, cqs[c.i].Pipe, profs[c.i][0]) })
		t.Logf("%s (%d instructions): %.1f allocations per listing", c.f.Name, size(c.f), allocs)
		if allocs > 3 {
			t.Errorf("%s (%d instructions): %.1f allocations per listing, gate 3", c.f.Name, size(c.f), allocs)
		}
	}
}
