package codegen

import (
	"repro/internal/core"
	"repro/internal/isa"
)

// Pre-compiled runtime routines, hand-written in native code — the
// analogue of Umbra's pre-compiled C++ helpers.
//
//	ht_insert  — chaining-hash-table insert, shared by every join build
//	             and aggregation across the whole query: the paper's
//	             canonical *shared source location* (§4.2.5). Callers wrap
//	             the call in Register Tagging; the routine's region is
//	             RegionShared so samples resolve through the tag register
//	             or call stack.
//	memset64   — clears hash-table directories; runtime-system work that
//	             attributes to the "kernel" pseudo-task (Table 2's
//	             "Kernel Tasks" bucket).
//	bumpalloc  — bump allocation for result rows; deliberately untagged
//	             "system library" code reproducing the paper's ~2%
//	             unattributed samples.
//
// Calling convention: args r0..r3, result r0, r0..r4 clobbered.

// Runtime routine symbols.
const (
	SymHTInsert  = "ht_insert"
	SymMemset64  = "memset64"
	SymBumpAlloc = "bumpalloc"
)

// runtimeSym reports whether a call target is a hand-written runtime
// routine, which honors the convention above (r0..r4 clobbered, the rest
// preserved). Generated functions make no such promise: values live
// across a call to one must be spilled.
func runtimeSym(name string) bool {
	switch name {
	case SymHTInsert, SymMemset64, SymBumpAlloc:
		return true
	}
	return false
}

// Hash-table descriptor layout (heap block passed to ht_insert):
const (
	HTDescDir    = 0  // directory base address
	HTDescMask   = 8  // directory mask (slots-1)
	HTDescCursor = 16 // arena bump cursor
	HTDescEnd    = 24 // arena end
	HTDescSize   = 32
)

// Hash-table entry header layout: [next | hash | payload...].
const (
	HTEntryNext   = 0
	HTEntryHash   = 8
	HTEntryHeader = 16
)

// Allocator descriptor layout (bumpalloc): [cursor | end].
const (
	AllocDescCursor = 0
	AllocDescEnd    = 8
	AllocDescSize   = 16
)

// Trap codes used by runtime routines.
const (
	TrapHTArenaFull = 1
	TrapAllocFull   = 2
)

func emitRuntime(e *emitter) {
	emitRoutine(e, SymHTInsert, core.RegionShared, htInsertCode)
	emitRoutine(e, SymMemset64, core.RegionKernel, memset64Code)
	emitRoutine(e, SymBumpAlloc, core.RegionLibrary, bumpAllocCode)
}

// emitRoutine appends a routine whose branch targets are entry-relative.
func emitRoutine(e *emitter, name string, region core.RegionKind, code []isa.Instr) {
	entry := len(e.prog.Code)
	for _, in := range code {
		if in.IsBranch() {
			if in.Op == isa.JMP || in.Op == isa.JNZ || in.Op == isa.JZ {
				in.Imm += int64(entry)
			} else {
				in.Imm2 += int64(entry)
			}
		}
		e.push(in, nil, region, name)
	}
	e.symbols[name] = entry
	e.prog.Funcs = append(e.prog.Funcs, isa.FuncSym{Name: name, Entry: entry, End: len(e.prog.Code)})
}

// htInsertCode: r0 = hash-table descriptor, r1 = hash, r2 = entry size
// (header included); returns r0 = new entry address. The entry is linked
// at the head of its directory chain with its hash stored; the caller
// fills key and payload.
var htInsertCode = []isa.Instr{
	{Op: isa.LOAD64, Dst: 3, Src1: 0, Imm: HTDescCursor},      // 0: entry = cursor
	{Op: isa.ADD, Dst: 2, Src1: 3, Src2: 2},                   // 1: newcur = entry + size
	{Op: isa.LOAD64, Dst: 4, Src1: 0, Imm: HTDescEnd},         // 2: end
	{Op: isa.JGE, Src1: 4, Src2: 2, Imm2: 5},                  // 3: if end >= newcur goto 5
	{Op: isa.TRAP, Imm: TrapHTArenaFull},                      // 4
	{Op: isa.STORE64, Dst: 2, Src1: 0, Imm: HTDescCursor},     // 5: cursor = newcur
	{Op: isa.STORE64, Dst: 1, Src1: 3, Imm: HTEntryHash},      // 6: entry.hash = hash
	{Op: isa.LOAD64, Dst: 2, Src1: 0, Imm: HTDescMask},        // 7: mask
	{Op: isa.AND, Dst: 2, Src1: 1, Src2: 2},                   // 8: slot = hash & mask
	{Op: isa.LOAD64, Dst: 4, Src1: 0, Imm: HTDescDir},         // 9: dir
	{Op: isa.LOAD64, Dst: 1, Src1: 4, Src2: 2, Scaled: true},  // 10: head = dir[slot]
	{Op: isa.STORE64, Dst: 1, Src1: 3, Imm: HTEntryNext},      // 11: entry.next = head
	{Op: isa.STORE64, Dst: 3, Src1: 4, Src2: 2, Scaled: true}, // 12: dir[slot] = entry
	{Op: isa.MOVRR, Dst: 0, Src1: 3},                          // 13: return entry
	{Op: isa.RET},                                             // 14
}

// memset64Code: r0 = address, r1 = value, r2 = byte count (multiple of 8).
// After an odd word, the loop stores two words per iteration and is
// rotated — its test sits at the bottom and branches back — so a word
// costs a store plus half an add and half a taken branch.
var memset64Code = []isa.Instr{
	{Op: isa.ADD, Dst: 3, Src1: 0, Src2: 2},               // 0: end = addr + n
	{Op: isa.AND, Dst: 4, Src1: 2, UseImm: true, Imm: 8},  // 1: odd = n & 8
	{Op: isa.JZ, Src1: 4, Imm: 5},                         // 2: if odd == 0 goto 5
	{Op: isa.STORE64, Dst: 1, Src1: 0},                    // 3: *addr = value
	{Op: isa.ADD, Dst: 0, Src1: 0, UseImm: true, Imm: 8},  // 4: addr += 8
	{Op: isa.JGE, Src1: 0, Src2: 3, Imm2: 10},             // 5: if addr >= end goto 10
	{Op: isa.STORE64, Dst: 1, Src1: 0},                    // 6: *addr = value
	{Op: isa.STORE64, Dst: 1, Src1: 0, Imm: 8},            // 7: *(addr+8) = value
	{Op: isa.ADD, Dst: 0, Src1: 0, UseImm: true, Imm: 16}, // 8: addr += 16
	{Op: isa.JLT, Src1: 0, Src2: 3, Imm2: 6},              // 9: if addr < end goto 6
	{Op: isa.RET},                                         // 10
}

// bumpAllocCode: r0 = allocator descriptor, r1 = size; returns r0 = block.
var bumpAllocCode = []isa.Instr{
	{Op: isa.LOAD64, Dst: 2, Src1: 0, Imm: AllocDescCursor},  // 0
	{Op: isa.ADD, Dst: 3, Src1: 2, Src2: 1},                  // 1: newcur
	{Op: isa.LOAD64, Dst: 4, Src1: 0, Imm: AllocDescEnd},     // 2
	{Op: isa.JGE, Src1: 4, Src2: 3, Imm2: 5},                 // 3
	{Op: isa.TRAP, Imm: TrapAllocFull},                       // 4
	{Op: isa.STORE64, Dst: 3, Src1: 0, Imm: AllocDescCursor}, // 5
	{Op: isa.MOVRR, Dst: 0, Src1: 2},                         // 6
	{Op: isa.RET},                                            // 7
}
