package engine

import (
	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/verify/absint"
)

// buildMemModel derives the abstract interpreter's memory model from the
// layout buildLayout produced: the regions it carved, each with its store
// permission, plus invariant facts for the staged cells generated code
// only ever reads (row counts, descriptor dir/mask/end, morsel bounds).
// The model is what lets internal/verify/absint prove column accesses
// in-bounds and catch provably wild or read-only-region stores at
// compile time.
func buildMemModel(cq *Compiled, lay *pipeline.Layout, pc *pipeline.Compiled) *absint.MemModel {
	mm := &absint.MemModel{
		HeapSize: int64(cq.heapSize),
		Regions:  cq.regions,
		Cells:    map[int64]absint.CellFact{},
	}

	// Exact cell facts from the staging writes, minus the cursor cells the
	// program itself advances.
	cursors := map[int64]bool{lay.ResultDesc + codegen.AllocDescCursor: true}
	for _, ht := range lay.HT {
		cursors[ht.Desc+codegen.HTDescCursor] = true
	}
	for _, w := range cq.writes {
		if !cursors[w.addr] {
			mm.Cells[w.addr] = absint.CellFact{Lo: w.val, Hi: w.val}
		}
	}
	// A parallel morsel stages a build's mask as 0 (runMorsel), so its fact
	// is a range: every insert then links into slot 0.
	for i := range pc.Pipelines {
		switch s := &pc.Pipelines[i].Sink; s.Kind {
		case pipeline.SinkJoinBuild, pipeline.SinkGJBuild:
			addr := s.HT.Desc + codegen.HTDescMask
			f := mm.Cells[addr]
			f.Lo = 0
			mm.Cells[addr] = f
		}
	}

	// Row-count slots are epoch-resolved — staged from the run's snapshot,
	// not baked into cq.writes — so their fact is the range of visible row
	// counts an artifact may serve: [0, capacity].
	capOf := map[string]int64{}
	for _, tb := range cq.tables {
		capOf[tb.alias] = tb.cap
	}
	for _, rb := range cq.rowsBinds {
		var c int64
		for _, tb := range cq.tables {
			if tb.table == rb.table {
				c = tb.cap
				break
			}
		}
		mm.Cells[rb.addr] = absint.CellFact{Lo: 0, Hi: c}
	}

	// Morsel-bound facts: interval invariants over every morsel the host
	// can stage (runMorsel semantics — scan morsels are tuple-index ranges
	// within [0, rows], where rows can reach the reserved capacity at a
	// later epoch; arena morsels are entry-aligned addresses within the
	// arena).
	for i := range pc.Pipelines {
		p := &pc.Pipelines[i]
		var f absint.CellFact
		switch d := p.Driver; d.Kind {
		case pipeline.DriverScan:
			hi := int64(d.Rows)
			if c, ok := capOf[d.Alias]; ok && c > hi {
				hi = c
			}
			f = absint.CellFact{Lo: 0, Hi: hi}
		case pipeline.DriverArena:
			if d.HT == nil {
				continue
			}
			f = absint.CellFact{Lo: d.HT.Arena, Hi: d.HT.ArenaEnd}
			if d.HT.Arena%8 == 0 && d.HT.EntrySize%8 == 0 {
				f.Align = 8
			}
		default:
			continue
		}
		mm.Cells[lay.MorselStart(p.Index)] = f
		mm.Cells[lay.MorselEnd(p.Index)] = f
	}
	return mm
}
