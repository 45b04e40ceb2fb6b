package engine

import (
	"hash/fnv"
	"math"
	"reflect"
)

// Digest returns a 64-bit hash covering every exported field of Options,
// for use as a compiled-query cache key component: two Options with equal
// digests must compile identically. The hash walks the struct by
// reflection — field names and values both feed the hash — so adding a
// field to Options (or to a nested struct like iropt.Options) changes the
// digest domain automatically; TestOptionsDigestCoversAllFields guards
// that no field kind falls through the walk.
func (o Options) Digest() uint64 {
	h := fnv.New64a()
	digestValue(h, "Options", reflect.ValueOf(o))
	return h.Sum64()
}

// hashWriter is the subset of hash.Hash64 digestValue needs.
type hashWriter interface{ Write(p []byte) (int, error) }

// hwrite feeds bytes to the digest. hash.Hash documents that Write never
// returns an error; handling it here in one place keeps every call site
// honest under lint/noerrdrop without sprinkling discards around.
func hwrite(h hashWriter, p []byte) {
	if _, err := h.Write(p); err != nil {
		bugf("digest write failed: %v", err)
	}
}

func digestValue(h hashWriter, name string, v reflect.Value) {
	hwrite(h, []byte(name))
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			hwrite(h, []byte{1})
		} else {
			hwrite(h, []byte{0})
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		writeU64(h, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		writeU64(h, v.Uint())
	case reflect.Float32, reflect.Float64:
		writeU64(h, math.Float64bits(v.Float()))
	case reflect.String:
		hwrite(h, []byte(v.String()))
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			digestValue(h, t.Field(i).Name, v.Field(i))
		}
	case reflect.Ptr, reflect.Interface, reflect.Func, reflect.Map, reflect.Chan:
		// Reference kinds (e.g. iropt's AfterPass hook) contribute
		// presence only: their pointees aren't comparable.
		if v.IsNil() {
			hwrite(h, []byte{0})
		} else {
			hwrite(h, []byte{1})
		}
	case reflect.Slice, reflect.Array:
		writeU64(h, uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			digestValue(h, "", v.Index(i))
		}
	default:
		// A new field kind nobody taught the walk about: make it
		// impossible to miss in tests.
		bugf("Options.Digest cannot hash %s field %s", v.Kind(), name)
	}
}

func writeU64(h hashWriter, x uint64) {
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(x >> (8 * i))
	}
	hwrite(h, b[:])
}
