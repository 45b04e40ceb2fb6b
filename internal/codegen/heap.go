package codegen

import "encoding/binary"

// Heap word accessors, shared by every host component that peeks into raw
// simulated-heap bytes (the engine's morsel scheduler, the partitioned
// merge staging, tprofvet's runtime checks). The simulated machine is
// little-endian; keeping the decode in one place next to the descriptor
// and entry layout constants avoids each caller re-implementing it.

// HeapI64 reads a little-endian int64 from a raw byte region.
func HeapI64(b []byte, off int64) int64 {
	return int64(binary.LittleEndian.Uint64(b[off:]))
}

// PutHeapI64 writes a little-endian int64 into a raw byte region.
func PutHeapI64(b []byte, off, v int64) {
	binary.LittleEndian.PutUint64(b[off:], uint64(v))
}

// PutHeapI64s writes vals as consecutive little-endian int64s at the start
// of b, which must hold them all.
func PutHeapI64s(b []byte, vals []int64) {
	b = b[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:8*i+8], uint64(v))
	}
}
