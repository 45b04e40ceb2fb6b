package pipeline

import (
	"math/bits"

	"repro/internal/codegen"
)

// Host-side mirror of the generated join probe, used by the cross-shard
// coordinator for semi-join shipping: before a probe-side shard scan runs,
// the engine looks candidate key values up in the build side's finished
// hash table and prunes zones whose every candidate is absent. hashKey
// replays hashOf's generated sequence; TestBuildContainsMatchesBuildKeys
// keeps the two from drifting apart.

// crc32Mix replays the VM's isa.CRC32 ALU op: one mixing step of the
// hash pipeline (crc32 i64 const, v), not the real CRC polynomial.
func crc32Mix(a, b int64) int64 {
	x := uint64(a) ^ uint64(b)*0x9e3779b97f4a7c15
	x ^= x >> 32
	x *= 0xd6e8feb86659fd93
	x ^= x >> 32
	return int64(x)
}

// hashKey returns the hash hashOf's generated code computes for a key.
// Operand binding matters: in the executed kernel the key lands in the
// mix's xor slot and the constant in the multiply slot, so the replay
// calls crc32Mix(key, const).
func hashKey(key int64) int64 {
	g1, g2 := crc32Mix(key, hashC1), crc32Mix(key, hashC2)
	r := int64(bits.RotateLeft64(uint64(g2), -32))
	return (g1 ^ r) * hashMul
}

// BuildContains reports whether a key was inserted into a finished hash
// table (join or group-join build) on a canonical heap: it reads the
// directory slot the key hashes to and walks the chain comparing the key
// at entryKeyOff, exactly as the generated probe does. Both answers are
// exact.
func BuildContains(heap []byte, ht *HTLayout, key int64) bool {
	e := codegen.HeapI64(heap, ht.Dir+(hashKey(key)&(ht.DirSlots-1))*8)
	for ; e != 0; e = codegen.HeapI64(heap, e+codegen.HTEntryNext) {
		if codegen.HeapI64(heap, e+entryKeyOff) == key {
			return true
		}
	}
	return false
}
