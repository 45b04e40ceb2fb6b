// Package mutate is the miscompilation-mutant harness: it injects seeded,
// deterministic defects into compilation artifacts so the verification
// stack can be measured instead of trusted. Each mutant models a realistic
// bug of one lowering step, and the harness judges it the way the engine's
// VerifyArtifacts mode judges that step:
//
//   - optimizer-pass defects corrupt an ir.Module or the lineage the pass
//     reports (swapped operands, a dropped store, a perturbed constant, a
//     load of writable memory hoisted as if invariant, a derive cycle);
//     translation validation (internal/verify/tv) against the clean
//     module plus the artifact gate (verify.Check) judge them;
//   - generator defects corrupt what the pipeline generator hands on (a
//     writable load marked invariant, the merge metadata); translation
//     validation takes the generator's output as its baseline, so the
//     artifact gate alone judges them;
//   - backend defects corrupt an emitted codegen.Result (a clobbered or
//     unrestored tag register, a wild or misaligned address, a column read
//     at the wrong width, a stale Inverted bit, a lost debug-map entry);
//     the artifact gate over the emitted program judges them.
//
// State mutants (state.go) corrupt a run's shard journals, and the epoch
// journal, snapshots and view ledgers of a scripted ingest, judged by the
// shard, epoch and view replay checkers.
//
// The harness enumerates candidate sites deterministically (module and
// program iteration order is deterministic) and caps each class at a few
// spread-out sites so the gate stays fast. Judge and JudgeIngest apply
// every mutant to a fresh artifact and return the rules that fired on it;
// the gate — TestMutantGate and `tprofvet check -mutants` — requires every
// mutant caught, zero diagnostics on the clean compiles and journals, and
// every rule of the artifact gate and the state checkers the sole catcher
// of some mutant.
package mutate

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/pipeline"
	"repro/internal/plan"
	"repro/internal/verify"
	"repro/internal/verify/absint"
	"repro/internal/verify/tv"
)

// Mutant is one seeded defect. Apply corrupts the artifact it was
// enumerated from, in place; enumerate from a fresh artifact for each
// mutant, apply exactly one, then discard the artifact. The class's prefix
// names the step whose bug it models: "ir/" and "dict/" an optimizer
// pass, "gen/" the pipeline generator, "native/" the backend.
type Mutant struct {
	// Class identifies the defect model, e.g. "ir/swap-operands".
	Class string
	// Site describes where the defect lands, for failure output.
	Site string
	// Apply injects the defect into the originating artifact.
	Apply func()
}

// sitesPerClass caps how many sites each class contributes per artifact;
// sites are spread across the candidate list rather than clustered at the
// front.
const sitesPerClass = 3

// spread picks up to sitesPerClass indices evenly across n candidates.
func spread(n int) []int {
	if n <= sitesPerClass {
		return []int{0, 1, 2}[:n]
	}
	return []int{0, n / 2, n - 1}
}

// addClass appends the mutants of one class to muts: up to sitesPerClass
// sites spread across the candidates among 0..n-1 (all when keep is nil).
// site describes one, apply corrupts it.
func addClass(muts *[]Mutant, name string, n int, keep func(int) bool, site func(int) string, apply func(int)) {
	var cands []int
	for k := 0; k < n; k++ {
		if keep == nil || keep(k) {
			cands = append(cands, k)
		}
	}
	for _, i := range spread(len(cands)) {
		k := cands[i]
		*muts = append(*muts, Mutant{Class: name, Site: site(k), Apply: func() { apply(k) }})
	}
}

// IR enumerates mutants over a pipeline compile: its module, its
// dictionary and its pipeline metadata. The compile must be fresh; every
// returned Apply closure corrupts it in place.
func IR(pc *pipeline.Compiled) []Mutant {
	m, dict := pc.Module, pc.Dict
	type site struct {
		in  *ir.Instr
		fn  string
		blk *ir.Block
		idx int
	}
	collect := func(pred func(*ir.Instr) bool) []site {
		var out []site
		for _, f := range m.Funcs {
			for _, b := range f.Blocks {
				for i, in := range b.Instrs {
					if pred(in) {
						out = append(out, site{in, f.Name, b, i})
					}
				}
			}
		}
		return out
	}
	var muts []Mutant
	class := func(name string, sites []site, apply func(site)) {
		addClass(&muts, name, len(sites), nil, func(k int) string {
			s := sites[k]
			return fmt.Sprintf("%s/%s %%%d (%s)", s.fn, s.blk.Name, s.in.ID, s.in.Op)
		}, func(k int) { apply(sites[k]) })
	}

	nonCommutative := func(in *ir.Instr) bool {
		switch in.Op {
		case ir.OpSub, ir.OpShl, ir.OpShr, ir.OpCmpLt, ir.OpCmpLe, ir.OpCmpGt, ir.OpCmpGe:
			return len(in.Args) == 2 && in.Args[0] != in.Args[1]
		}
		return false
	}
	class("ir/swap-operands", collect(nonCommutative), func(s site) {
		s.in.Args[0], s.in.Args[1] = s.in.Args[1], s.in.Args[0]
	})

	class("ir/perturb-const", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpConst
	}), func(s site) { s.in.Imm++ })

	class("ir/opcode-swap", collect(func(in *ir.Instr) bool {
		// Skip x+0: swapping it to x-0 is an equivalent mutant (both
		// normalize to x), not a defect.
		return in.Op == ir.OpAdd && len(in.Args) == 2 &&
			!(in.Args[1].Op == ir.OpConst && in.Args[1].Imm == 0)
	}), func(s site) { s.in.Op = ir.OpSub })

	drop := func(s site) { s.blk.Instrs = append(s.blk.Instrs[:s.idx:s.idx], s.blk.Instrs[s.idx+1:]...) }
	class("ir/drop-store", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpStore8 || in.Op == ir.OpStore32 || in.Op == ir.OpStore64
	}), drop)
	class("ir/drop-settag", collect(func(in *ir.Instr) bool { return in.Op == ir.OpSetTag }), drop)

	class("ir/swap-branch-targets", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpCondBr
	}), func(s site) {
		s.in.Targets[0], s.in.Targets[1] = s.in.Targets[1], s.in.Targets[0]
	})

	class("ir/swap-phi-incoming", collect(func(in *ir.Instr) bool {
		return in.Op == ir.OpPhi && len(in.Args) == 2 && in.Args[0] != in.Args[1]
	}), func(s site) {
		s.in.Args[0], s.in.Args[1] = s.in.Args[1], s.in.Args[0]
	})

	// A code-motion bug: a load of writable memory (one not marked
	// invariant) hoisted to its block's immediate dominator, with the
	// address arithmetic it computes in its block, as if it were
	// invariant. It then reads before the stores and calls of the path
	// it left.
	idomOf := func(f *ir.Func) []int32 {
		depth, idom := make([]int32, len(f.Blocks)), make([]int32, len(f.Blocks))
		f.Dominators().Tree(depth, idom)
		return idom
	}
	var hoistable []site
	for _, f := range m.Funcs {
		idom := idomOf(f)
		for _, b := range f.Blocks {
			for i, in := range b.Instrs {
				if in.Op.IsLoad() && !in.Invariant && idom[b.Index] >= 0 && addressMovable(in) {
					hoistable = append(hoistable, site{in, f.Name, b, i})
				}
			}
		}
	}
	class("ir/hoist-writable-load", hoistable, func(s site) {
		f := s.blk.Func
		to := f.Blocks[idomOf(f)[s.blk.Index]]
		var group, kept []*ir.Instr
		for _, in := range s.blk.Instrs {
			if in == s.in || feedsAddress(in, s.in) {
				group = append(group, in)
			} else {
				kept = append(kept, in)
			}
		}
		s.blk.Instrs = kept
		term := to.Instrs[len(to.Instrs)-1]
		to.Instrs = append(append(to.Instrs[:len(to.Instrs)-1:len(to.Instrs)-1], group...), term)
		for _, in := range group {
			in.Block = to
		}
	})

	// Lineage a pass reports wrongly. The module is left as it is.
	all := collect(func(*ir.Instr) bool { return true })
	class("dict/drop-link", all, func(s site) { dict.Removed(s.in.ID) })
	class("dict/link-operator", all, func(s site) {
		dict.LinkIR(s.in.ID, dict.OperatorOf(dict.TasksOf(s.in.ID)[0]))
	})
	class("dict/derive-cycle", collect(func(in *ir.Instr) bool {
		return in.Block.Terminator() != in
	}), func(s site) {
		next := s.blk.Instrs[s.idx+1].ID
		dict.Derived(s.in.ID, next)
		dict.Derived(next, s.in.ID)
	})
	class("dict/derive-discarded", all, func(s site) {
		// Lineage for an instruction the pass then never inserts.
		dict.Derived(m.NewID(), s.in.ID)
	})
	class("dict/derive-from-removed", all, func(s site) {
		gone := m.NewID() // an instruction the pass deleted earlier
		dict.Removed(gone)
		dict.Derived(s.in.ID, gone)
	})

	// The generator marks a load of writable memory invariant.
	class("gen/mark-invariant", collect(func(in *ir.Instr) bool {
		return in.Op.IsLoad() && !in.Invariant
	}), func(s site) { s.in.Invariant = true })

	// Merge metadata the generator gets wrong. HTLayout is shared with the
	// compile's layout, so a defect in it goes into a copy.
	var merged, grouped []int
	for i, p := range pc.Pipelines {
		if p.Merge != nil {
			merged = append(merged, i)
			if len(p.Sink.Slots) > 0 {
				grouped = append(grouped, i)
			}
		}
	}
	meta := func(name string, sites []int, apply func(p *pipeline.PipelineInfo, ht *pipeline.HTLayout)) {
		pipe := func(k int) *pipeline.PipelineInfo { return &pc.Pipelines[sites[k]] }
		addClass(&muts, name, len(sites), nil, func(k int) string { return "pipeline " + pipe(k).Name }, func(k int) {
			p := pipe(k)
			ht := *p.Sink.HT
			p.Sink.HT = &ht
			apply(p, &ht)
		})
	}
	meta("gen/slot-shift", merged, func(_ *pipeline.PipelineInfo, ht *pipeline.HTLayout) { ht.SlotShift++ })
	meta("gen/staging-overlap", merged, func(_ *pipeline.PipelineInfo, ht *pipeline.HTLayout) { ht.MergeSrc = ht.Arena })
	meta("gen/drop-state-slot", grouped, func(p *pipeline.PipelineInfo, _ *pipeline.HTLayout) {
		p.Sink.Slots = p.Sink.Slots[:len(p.Sink.Slots)-1]
	})
	meta("gen/kernel-swap", merged, func(p *pipeline.PipelineInfo, _ *pipeline.HTLayout) {
		p.Merge.MergeFunc = p.Merge.ScatterFunc
	})

	return muts
}

// addressMovable reports whether a load's address is computed from values
// defined outside its block, through pure arithmetic inside it.
func addressMovable(ld *ir.Instr) bool {
	var ok func(x *ir.Instr) bool
	ok = func(x *ir.Instr) bool {
		if x.Block != ld.Block {
			return true
		}
		if !x.Op.IsPure() {
			return false
		}
		for _, a := range x.Args {
			if !ok(a) {
				return false
			}
		}
		return true
	}
	return ok(ld.Args[0])
}

// feedsAddress reports whether x is part of ld's in-block address
// arithmetic.
func feedsAddress(x, ld *ir.Instr) bool {
	var reach func(y *ir.Instr) bool
	reach = func(y *ir.Instr) bool {
		if y == x {
			return true
		}
		if y.Block != ld.Block {
			return false
		}
		for _, a := range y.Args {
			if reach(a) {
				return true
			}
		}
		return false
	}
	return x.Op.IsPure() && reach(ld.Args[0])
}

// CloneResult deep-copies the parts of a codegen.Result that native
// mutants corrupt (the instruction stream, the IR provenance lists and the
// Inverted bits); the rest of the debug info is shared.
func CloneResult(res *codegen.Result) *codegen.Result {
	out := *res
	out.Program = &isa.Program{Code: slices.Clone(res.Program.Code), Funcs: res.Program.Funcs}
	nmap := *res.NMap
	nmap.IRs, nmap.Inverted = slices.Clone(nmap.IRs), slices.Clone(nmap.Inverted)
	out.NMap = &nmap
	return &out
}

// Native enumerates mutants over an emitted program. Clone the result
// (CloneResult) before enumerating; every Apply corrupts it in place.
func Native(res *codegen.Result, mem *absint.MemModel) []Mutant {
	prog, nmap := res.Program, res.NMap
	gen := func(pos int) bool {
		return pos < len(nmap.Region) && nmap.Region[pos] == core.RegionGenerated
	}
	collect := func(pred func(int, *isa.Instr) bool) []int {
		var out []int
		for pos := range prog.Code {
			if pred(pos, &prog.Code[pos]) {
				out = append(out, pos)
			}
		}
		return out
	}
	var muts []Mutant
	class := func(name string, sites []int, apply func(int)) {
		addClass(&muts, name, len(sites), nil, func(k int) string {
			return fmt.Sprintf("native@%d (%s)", sites[k], prog.Code[sites[k]].String())
		}, func(k int) { apply(sites[k]) })
	}

	// An off-by-one on a spill/staging store address: breaks alignment.
	class("native/store-misalign", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.STORE64 && in.Abs
	}), func(pos int) { prog.Code[pos].Imm++ })

	// A wild absolute load far beyond the heap.
	class("native/load-oob", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.LOAD64 && in.Abs
	}), func(pos int) { prog.Code[pos].Imm = mem.HeapSize + 4096 })

	// A store retargeted into host-staged read-only data (a column).
	var roBase int64 = -1
	for _, r := range mem.Regions {
		if r.Name == "col" && r.Hi-r.Lo >= 8 {
			roBase = r.Lo
			break
		}
	}
	if roBase >= 0 {
		class("native/readonly-store", collect(func(pos int, in *isa.Instr) bool {
			return gen(pos) && in.Op == isa.STORE64 && in.Abs
		}), func(pos int) { prog.Code[pos].Imm = roBase })
	}

	// A scaled column load at the wrong width, 2 bytes read as 4 or 4 as
	// 2: the kind of slip a backend makes when widths grow a new class.
	// Each direction contributes its own sites.
	colLoad := func(op isa.Op) []int {
		return collect(func(pos int, in *isa.Instr) bool {
			if !gen(pos) || in.Op != op || !in.Abs || !in.Scaled {
				return false
			}
			r := mem.RegionAt(in.Imm, 1)
			return r != nil && r.Name == "col"
		})
	}
	swapWidth := func(pos int) {
		in := &prog.Code[pos]
		if in.Op == isa.LOAD16 {
			in.Op = isa.LOAD32
		} else {
			in.Op = isa.LOAD16
		}
	}
	class("native/load-width", colLoad(isa.LOAD16), swapWidth)
	class("native/load-width", colLoad(isa.LOAD32), swapWidth)

	// A scratch move retargeted to the reserved tag register: a stale tag
	// write far from any shared call.
	class("native/tag-clobber", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.MOVRI && in.Dst != isa.TagReg &&
			in.Dst > isa.LastClobbered
	}), func(pos int) { prog.Code[pos].Dst = isa.TagReg })

	// The tag write preceding a shared call dropped (NOPed out), and the
	// restore of the previous tag after it.
	nop := func(pos int) { prog.Code[pos] = isa.Instr{Op: isa.NOP} }
	class("native/drop-tag-write", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.MOVRI && in.Dst == isa.TagReg
	}), nop)
	class("native/drop-tag-restore", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.Op == isa.MOVRR && in.Dst == isa.TagReg
	}), nop)

	// A divisor operand folded into the constant zero.
	class("native/div-zero", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && (in.Op == isa.DIV || in.Op == isa.MOD)
	}), func(pos int) { prog.Code[pos].UseImm, prog.Code[pos].Imm = true, 0 })

	// Debug info the emitter loses: one instruction's map entry, shifting
	// every later one; or its IR provenance.
	class("native/drop-nmap-entry", collect(func(pos int, _ *isa.Instr) bool { return gen(pos) }), func(pos int) {
		nmap.IRs = append(nmap.IRs[:pos:pos], nmap.IRs[pos+1:]...)
	})
	class("native/strip-provenance", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && len(nmap.IRs[pos]) > 0 && in.Op != isa.JMP
	}), func(pos int) { nmap.IRs[pos] = nil })

	// A function's final RET or HALT dropped: it falls through.
	var ends []int
	for _, f := range prog.Funcs {
		if last := f.End - 1; f.End > f.Entry && gen(last) && (prog.Code[last].Op == isa.RET || prog.Code[last].Op == isa.HALT) {
			ends = append(ends, last)
		}
	}
	class("native/drop-ret", ends, nop)

	// An Inverted bit dropped from a branch the layout flipped, or set on
	// one it did not: profiles would then record the branch's outcomes
	// against the wrong source direction.
	class("native/stale-inverted", collect(func(pos int, in *isa.Instr) bool {
		return gen(pos) && in.IsBranch() && in.Op != isa.JMP
	}), func(pos int) { nmap.Inverted[pos] = !nmap.Inverted[pos] })

	// A branch retargeted into a different function.
	class("native/branch-escape", collect(func(pos int, in *isa.Instr) bool {
		if !gen(pos) || !in.IsBranch() {
			return false
		}
		return prog.FuncAt(pos) != nil && len(prog.Funcs) > 1
	}), func(pos int) {
		in := &prog.Code[pos]
		self := prog.FuncAt(pos)
		for i := range prog.Funcs {
			f := &prog.Funcs[i]
			if f != self && f.End > f.Entry {
				tgt := int64(f.Entry)
				if in.Op == isa.JMP || in.Op == isa.JNZ || in.Op == isa.JZ {
					in.Imm = tgt
				} else {
					in.Imm2 = tgt
				}
				return
			}
		}
	})

	return muts
}

// Verdict is one mutant's judgement: the distinct rules (core.Diag.Check) that
// fired on it, sorted. A verdict with no rules is a mutant that got
// through.
type Verdict struct {
	Class, Site string
	Rules       []string
}

// Judge compiles q and its merge kernels with VerifyArtifacts on — the
// clean compile must pass the artifact gate at every phase and translation
// validation at every optimizer pass — then applies every mutant of the
// parallel program, the serial one with the kernels, to a fresh artifact
// and judges it. It then runs q at Workers 2 × Shards 2 with pruning —
// the clean shard journals must replay silently through
// verify.CheckShards — and judges every journal mutant on a fresh copy.
func Judge(cat *catalog.Catalog, q *plan.Query) ([]Verdict, error) {
	opts := engine.DefaultOptions()
	opts.VerifyArtifacts = true
	cq, err := engine.NewCompiler(cat, opts).CompileQuery(q)
	if err != nil {
		return nil, fmt.Errorf("clean compile flagged: %w", err)
	}
	if cq.TVSteps == 0 {
		return nil, errors.New("translation validator checked no pass applications")
	}
	// The generator's output as a parallel run receives it: the pipelines
	// and the merge kernels, unoptimized, in one module.
	fresh := func() (*pipeline.Compiled, error) {
		pc, err := pipeline.Compile(cq.Plan, cq.Layout, pipeline.Options{RegisterTagging: opts.RegisterTagging})
		if err != nil {
			return nil, fmt.Errorf("pipeline recompile: %w", err)
		}
		pc.JoinKernels()
		return pc, nil
	}
	par, err := cq.Parallel()
	if err != nil {
		return nil, fmt.Errorf("clean merge kernels flagged: %w", err)
	}
	clean, err := fresh()
	if err != nil {
		return nil, err
	}
	it := tv.NewInterner()
	pre := tv.Summarize(clean.Module, it)
	out, err := judgeAll(fresh, IR, func(pc *pipeline.Compiled, m Mutant) []core.Diag {
		ds := verify.Check(&verify.Artifact{Module: pc.Module, Dict: pc.Dict,
			RegisterTagging: opts.RegisterTagging, Pipelines: pc.Pipelines, Mem: cq.Mem})
		if !strings.HasPrefix(m.Class, "gen/") {
			ds = append(ds, tv.Compare(pre, tv.Summarize(pc.Module, it), it)...)
		}
		return ds
	})
	if err != nil {
		return nil, err
	}
	native, nerr := judgeAll(func() (*codegen.Result, error) { return CloneResult(par.Code), nil },
		func(code *codegen.Result) []Mutant { return Native(code, cq.Mem) },
		func(code *codegen.Result, _ Mutant) []core.Diag {
			return verify.Check(&verify.Artifact{Module: par.Module, Dict: par.Dict, Code: code,
				RegisterTagging: opts.RegisterTagging, Pipelines: cq.Pipe.Pipelines, Mem: cq.Mem})
		})

	opts.Workers, opts.Shards, opts.ShardPruning = 2, 2, true
	res, err := engine.New(cat, opts).Run(cq, nil)
	if err != nil {
		return nil, fmt.Errorf("sharded run: %w", err)
	}
	rows := verify.ScanRows(cq.Plan)
	if err := verify.AsError(verify.CheckShards(rows, res.ShardStates)); err != nil {
		return nil, fmt.Errorf("clean shard journals flagged: %w", err)
	}
	journals, jerr := judgeAll(func() (*[]core.ShardState, error) {
		js := CloneJournals(res.ShardStates)
		return &js, nil
	}, Journal, func(js *[]core.ShardState, _ Mutant) []core.Diag { return verify.CheckShards(rows, *js) })
	return slices.Concat(out, native, journals), errors.Join(nerr, jerr)
}

// judgeAll applies every mutant enumerate finds, each to a fresh
// artifact, and records the rules check fires on it.
func judgeAll[A any](fresh func() (A, error), enumerate func(A) []Mutant, check func(A, Mutant) []core.Diag) ([]Verdict, error) {
	var out []Verdict
	for i := 0; ; i++ {
		art, err := fresh()
		if err != nil {
			return nil, err
		}
		muts := enumerate(art)
		if i == len(muts) {
			return out, nil
		}
		m := muts[i]
		m.Apply()
		v := Verdict{Class: m.Class, Site: m.Site}
		for _, d := range check(art, m) {
			v.Rules = append(v.Rules, d.Check)
		}
		slices.Sort(v.Rules)
		v.Rules = slices.Compact(v.Rules)
		out = append(out, v)
	}
}

// exempt reports whether a rule need not be the sole catcher of any
// mutant: translation validation judges optimizer passes but is not a rule
// of the artifact gate, and the structural codes of ir.(*Module).Check also
// run as Module.Verify on every compile.
func exempt(rule string) bool {
	return strings.HasPrefix(rule, "tv/") || strings.HasPrefix(rule, "ir/") && rule != "ir/invariant-load"
}

// Score tallies verdicts: per class how many mutants were caught, per rule
// on how many it fired and how many it caught alone.
type Score struct {
	Caught   int              `json:"caught"`
	Total    int              `json:"total"`
	PerClass map[string]Tally `json:"perClass"`
	PerRule  map[string]Fired `json:"perRule"`
	Missed   []string         `json:"missed,omitempty"`
}

// Tally is one class's score.
type Tally struct{ Caught, Total int }

// Fired is one rule's score.
type Fired struct {
	Fired int `json:"fired"`
	Sole  int `json:"sole"` // mutants no other rule caught
}

// NewScore returns an empty score.
func NewScore() *Score {
	return &Score{PerClass: map[string]Tally{}, PerRule: map[string]Fired{}}
}

// Add tallies one workload's verdicts.
func (s *Score) Add(workload string, vs []Verdict) {
	for _, v := range vs {
		tl := s.PerClass[v.Class]
		tl.Total++
		s.Total++
		if len(v.Rules) == 0 {
			s.Missed = append(s.Missed, workload+": "+v.Class+" at "+v.Site)
		} else {
			tl.Caught++
			s.Caught++
		}
		s.PerClass[v.Class] = tl
		for _, r := range v.Rules {
			f := s.PerRule[r]
			f.Fired++
			if len(v.Rules) == 1 {
				f.Sole++
			}
			s.PerRule[r] = f
		}
	}
}

// Lines renders the score for a reader: one line per class, then one per
// rule, each sorted by name.
func (s *Score) Lines() []string {
	var classes, rules []string
	for class, tl := range s.PerClass {
		classes = append(classes, fmt.Sprintf("%-28s %3d/%3d", class, tl.Caught, tl.Total))
	}
	for rule, f := range s.PerRule {
		rules = append(rules, fmt.Sprintf("%-34s fired %3d  sole %3d", rule, f.Fired, f.Sole))
	}
	sort.Strings(classes)
	sort.Strings(rules)
	return append(classes, rules...)
}

// Idle lists, sorted, the gate rules that fired but never caught a mutant
// alone: each must get a class of its own, or merge into the rule that
// catches its class, or go.
func (s *Score) Idle() []string {
	var idle []string
	for r, f := range s.PerRule {
		if f.Sole == 0 && !exempt(r) {
			idle = append(idle, r)
		}
	}
	sort.Strings(idle)
	return idle
}
