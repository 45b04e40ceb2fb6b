package iropt

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/ir"
)

// taskLinks is the part of the Tagging Dictionary that tag-everything
// placement reads and extends; *core.Dictionary implements it.
type taskLinks interface {
	TasksOf(irID int) []core.ComponentID
	LinkIR(irID int, task core.ComponentID)
}

// tagEverything implements the validation mode of §6.3: the tag register
// is kept in sync with the owning task for *all* generated code, not just
// shared locations, so the profiler can cross-check sampled instruction
// pointers against sampled tag values. It writes the tag at every point
// where the owning task changes within a block, at block heads (after any
// leading phis), and after every call to a generated function, which
// leaves its own tasks' tag behind. It runs after the last pass, so each
// instruction runs under its task's tag where code motion left it.
func tagEverything(m *ir.Module, lin core.Lineage) error {
	links, ok := lin.(taskLinks)
	if !ok {
		return fmt.Errorf("iropt: tag-everything needs a lineage that resolves tasks, got %T", lin)
	}
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			tagBlock(m, links, b)
		}
	}
	return nil
}

func tagBlock(m *ir.Module, links taskLinks, b *ir.Block) {
	out := make([]*ir.Instr, 0, len(b.Instrs))
	cur := core.NoComponent
	for _, in := range b.Instrs {
		if in.Op == ir.OpPhi {
			out = append(out, in)
			continue
		}
		if ts := links.TasksOf(in.ID); len(ts) == 1 && ts[0] != cur {
			task := ts[0]
			cst := &ir.Instr{ID: m.NewID(), Op: ir.OpConst, Type: ir.I64, Imm: int64(task), Block: b}
			st := &ir.Instr{ID: m.NewID(), Op: ir.OpSetTag, Type: ir.Void, Args: []*ir.Instr{cst}, Block: b}
			links.LinkIR(cst.ID, task)
			links.LinkIR(st.ID, task)
			out = append(out, cst, st)
			cur = task
		}
		out = append(out, in)
		if in.Op == ir.OpCall && m.FuncByName(in.Callee) != nil {
			cur = core.NoComponent // the callee left its own tag
		}
	}
	b.Instrs = out
}
