package engine

import (
	"reflect"
	"testing"
)

// TestOptionsDigestCoversEveryField is a reflection guard on the cache
// key: every exported leaf field reachable from Options must change the
// digest when it changes. A field added to Options (or to an embedded
// options struct like iropt.Options) that Digest fails to hash would
// silently serve artifacts compiled under different configurations from
// one cache entry; this test fails on such a field the day it is added.
func TestOptionsDigestCoversEveryField(t *testing.T) {
	d0 := DefaultOptions().Digest()
	if DefaultOptions().Digest() != d0 {
		t.Fatal("digest is not deterministic")
	}

	var leaves []leafPath
	collectLeaves(reflect.TypeOf(Options{}), nil, "Options", &leaves)
	if len(leaves) < 10 {
		t.Fatalf("only %d leaf fields found — reflection walk broken?", len(leaves))
	}
	for _, lf := range leaves {
		o := DefaultOptions()
		v := reflect.ValueOf(&o).Elem()
		for _, i := range lf.chain {
			v = v.Field(i)
		}
		mutateValue(t, lf.path, v)
		if o.Digest() == d0 {
			t.Errorf("mutating %s did not change the digest", lf.path)
		}
	}
	t.Logf("digest covers %d leaf fields", len(leaves))
}

// TestOptionsDigestShardKnobs pins the sharding knobs into the cache key
// explicitly (the reflection guard above covers them generically): an
// artifact compiled under one shard configuration must never be served
// for another, since the coordinator's decision — and with it the skip
// events — is baked into the artifact on the service path.
func TestOptionsDigestShardKnobs(t *testing.T) {
	base := DefaultOptions()
	d0 := base.Digest()

	a := base
	a.Shards = 4
	if a.Digest() == d0 {
		t.Error("Options.Shards does not feed the digest")
	}
	b := base
	b.ShardPruning = !base.ShardPruning
	if b.Digest() == d0 {
		t.Error("Options.ShardPruning does not feed the digest")
	}
	c := base
	c.Shards = 8
	if c.Digest() == a.Digest() {
		t.Error("different shard counts share a digest")
	}
}

type leafPath struct {
	chain []int
	path  string
}

func collectLeaves(typ reflect.Type, chain []int, path string, out *[]leafPath) {
	if typ.Kind() == reflect.Struct {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			sub := append(append([]int{}, chain...), i)
			collectLeaves(f.Type, sub, path+"."+f.Name, out)
		}
		return
	}
	*out = append(*out, leafPath{chain: chain, path: path})
}

// mutateValue changes one leaf to a different value. Reference kinds
// (func, interface, map, slice, pointer) flip nil-ness, matching the
// presence-only hashing Digest applies to them.
func mutateValue(t *testing.T, path string, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.String:
		v.SetString(v.String() + "x")
	case reflect.Func:
		if !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.MakeFunc(v.Type(), func(args []reflect.Value) []reflect.Value {
			out := make([]reflect.Value, v.Type().NumOut())
			for i := range out {
				out[i] = reflect.Zero(v.Type().Out(i))
			}
			return out
		}))
	case reflect.Interface:
		if v.IsNil() {
			t.Fatalf("field %s: no known concrete value for interface %s — extend mutateValue", path, v.Type())
		}
		v.Set(reflect.Zero(v.Type()))
	case reflect.Ptr:
		if !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Map:
		if !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Slice:
		if !v.IsNil() {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	default:
		t.Fatalf("field %s has unhandled kind %s — extend mutateValue and check Options.Digest handles it", path, v.Kind())
	}
}
