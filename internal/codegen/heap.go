package codegen

import (
	"encoding/binary"
	"strconv"
)

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

// PutHeapCol writes vals as consecutive little-endian values of width
// bytes (1, 2, 4 or 8) at the start of b, which must hold them all. Every
// value must fit the width (catalog.WidthFor): LOAD8 and LOAD16 read one or
// two bytes back zero-extended, LOAD32 four bytes sign-extended.
func PutHeapCol(b []byte, vals []int64, width int64) {
	switch width {
	case 1:
		b = b[:len(vals)]
		for i, v := range vals {
			b[i] = byte(v)
		}
	case 2:
		b = b[:2*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint16(b[2*i:2*i+2], uint16(v))
		}
	case 4:
		b = b[:4*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint32(b[4*i:4*i+4], uint32(v))
		}
	case 8:
		b = b[:8*len(vals)]
		for i, v := range vals {
			binary.LittleEndian.PutUint64(b[8*i:8*i+8], uint64(v))
		}
	default:
		bug("column width " + strconv.FormatInt(width, 10))
	}
}
