package absint

// MemModel declares the compiled query's heap layout for the abstract
// interpreter and the gate's invariant-load rule: every region the
// engine's buildLayout carved out of the heap, plus invariant facts about
// individual 64-bit cells the host stages before execution. Every compile
// builds one (engine.Compiled.Mem).
type MemModel struct {
	// HeapSize is the VM heap size in bytes; any access at or beyond it
	// (or below zero) traps at runtime.
	HeapSize int64
	// Regions lists the layout's carved regions in ascending address
	// order. Alignment padding between regions belongs to no region.
	Regions []MemRegion
	// Cells maps a 64-bit-aligned address to an invariant on the value
	// stored there. Facts are only declared for cells generated code
	// never writes (state slots, morsel bounds, descriptor dir/mask/end
	// fields), so they hold at every program point.
	Cells map[int64]CellFact
}

// MemRegion is one contiguous heap region with store permissions for
// generated code.
type MemRegion struct {
	Name string
	Lo   int64 // first byte
	Hi   int64 // one past the last byte
	// Writable reports whether generated code may store into the region.
	// Columns, state slots, morsel bounds and parameters are staged by
	// the host and read-only to the program; a provable store into one
	// is a miscompile.
	Writable bool
	// Width is the bytes per value of a column region (1, 2, 4 or 8): the
	// host stages every value at that width, so every access into the
	// region must use it. 0 for regions of mixed-width cells.
	Width int64
}

// Contains reports whether [lo, lo+w) lies inside the region.
func (r *MemRegion) Contains(lo, w int64) bool {
	return lo >= r.Lo && lo+w <= r.Hi
}

// CellFact is an invariant interval on a staged 64-bit cell's value
// (Lo == Hi for exact facts like a descriptor's directory base). Align,
// when > 1, additionally promises the value is a multiple of it (morsel
// bounds of an arena scan are entry-aligned addresses, for example).
type CellFact struct {
	Lo, Hi int64
	Align  int64
}

// RegionAt returns the region containing [addr, addr+w), or nil.
func (m *MemModel) RegionAt(addr, w int64) *MemRegion {
	for i := range m.Regions {
		if m.Regions[i].Contains(addr, w) {
			return &m.Regions[i]
		}
	}
	return nil
}
