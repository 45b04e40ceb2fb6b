package core

import "repro/internal/vm"

// Sample is one profiling sample as recorded by the PMU (internal/pmu).
// Depending on the sampling configuration it carries the instruction
// pointer only, IP+TSC, IP+TSC+registers (the Register Tagging
// configuration), or IP+call-stack (the call-stack sampling alternative).
type Sample struct {
	IP    int      // native instruction index at sampling time
	TSC   uint64   // timestamp counter, cycle resolution (§5.5)
	Event vm.Event // the armed hardware event

	Addr int64 // accessed memory address (meaningful for load events)

	// Tag is the captured tag register (valid when HasRegs). Register
	// Tagging stores the active task's ComponentID there (§4.2.5).
	Tag     int64
	HasRegs bool

	// Stack is the captured call stack: return addresses, innermost last
	// (valid when HasStack; the expensive call-stack sampling mode).
	Stack    []int
	HasStack bool

	// Worker identifies the simulated core whose PMU recorded the sample
	// (the paper keeps one PEBS buffer per hardware thread and merges
	// them bottom-up). 0 is the coordinator/single-CPU run; morsel
	// workers are numbered from 1.
	Worker int

	// Shard identifies the data shard whose morsel was executing when the
	// sample fired: 0 for unsharded work (coordinator, merge kernels,
	// one-core runs), shard s is recorded as s+1. The per-shard sub-buffers
	// this induces are a reporting lens — the merged profile's attribution
	// aggregates are identical for every shard count (Profile.Canonical
	// excludes the stamp, like Worker).
	Shard int
}

// RegionKind classifies native code regions for attribution.
type RegionKind uint8

const (
	// RegionGenerated is query-specific generated code: samples resolve
	// through debug info and the Tagging Dictionary.
	RegionGenerated RegionKind = iota
	// RegionShared is a pre-compiled routine shared between components
	// (ht_insert): samples resolve through the tag register or call stack.
	RegionShared
	// RegionKernel is runtime-system code (directory memset, arena
	// preparation): samples attribute to the kernel pseudo-task, the
	// paper's "Kernel Tasks" bucket in Table 2.
	RegionKernel
	// RegionLibrary is an untagged system library (the paper's remaining
	// 2%): samples stay unattributed.
	RegionLibrary
)

func (k RegionKind) String() string {
	switch k {
	case RegionGenerated:
		return "generated"
	case RegionShared:
		return "shared"
	case RegionKernel:
		return "kernel"
	case RegionLibrary:
		return "library"
	}
	return "?"
}

// NativeMap is the backend's debug information for lowering step 3
// (native instruction → IR instruction), the analogue of DWARF line tables
// in the paper. It is produced by internal/codegen.
type NativeMap struct {
	// IRs holds, per native instruction index, the IR instruction ID(s)
	// it was lowered from. Peephole instruction fusing yields multiple
	// entries (Table 1). Runtime-routine code has none.
	IRs [][]int
	// Region classifies each native instruction.
	Region []RegionKind
	// Routine names the runtime routine for non-generated regions.
	Routine []string
	// Inverted marks conditional branches whose sense the backend's
	// block layout flipped: the native taken-direction is the opposite
	// of the source branch's then-direction. The native/stale-inverted
	// checker (internal/verify) reads it to check the layout's flips.
	Inverted []bool
}

// NewNativeMap returns a map sized for n native instructions.
func NewNativeMap(n int) *NativeMap {
	return &NativeMap{
		IRs:      make([][]int, n),
		Region:   make([]RegionKind, n),
		Routine:  make([]string, n),
		Inverted: make([]bool, n),
	}
}

// Grow extends the map to cover n native instructions.
func (m *NativeMap) Grow(n int) {
	for len(m.IRs) < n {
		m.IRs = append(m.IRs, nil)
		m.Region = append(m.Region, RegionGenerated)
		m.Routine = append(m.Routine, "")
		m.Inverted = append(m.Inverted, false)
	}
}
