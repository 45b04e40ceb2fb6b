package core

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/vm"
)

func encodeMeta(t *testing.T, d *Dictionary, nm *NativeMap) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMetadata(&buf, d, nm); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodeSamples(t *testing.T, samples []Sample) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSamples(&buf, samples); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetadataRoundTrip: exporting and re-importing the compile-time state
// must attribute samples identically — the offline post-processing path of
// §5.2.2.
func TestMetadataRoundTrip(t *testing.T) {
	_, d, nm, _, _, _, t2 := testSetup()

	var buf bytes.Buffer
	if err := WriteMetadata(&buf, d, nm); err != nil {
		t.Fatal(err)
	}
	d2, nm2, err := ReadMetadata(&buf)
	if err != nil {
		t.Fatal(err)
	}

	samples := []Sample{
		{IP: 0, TSC: 1},
		{IP: 3, TSC: 2}, // fused
		{IP: 4, TSC: 3, Tag: int64(t2), HasRegs: true}, // shared via tag
		{IP: 5, TSC: 4}, // kernel
		{IP: 6, TSC: 5}, // library
	}
	before := NewAttributor(d, nm)
	after := NewAttributor(d2, nm2)
	for i := range samples {
		a := before.Attribute(&samples[i])
		b := after.Attribute(&samples[i])
		if a.Class != b.Class || !reflect.DeepEqual(a.Credits, b.Credits) {
			t.Fatalf("sample %d attribution changed after round trip:\n%+v\n%+v", i, a, b)
		}
	}
	if d2.Registry.Len() != d.Registry.Len() {
		t.Fatal("registry size changed")
	}
	if d2.Registry.KernelTask != d.Registry.KernelTask {
		t.Fatal("kernel task id changed")
	}
}

// TestMetadataRoundTripIsExact: everything the file carries comes back
// equal — registry, Log A, Log B with its shared flags (also on an IR id
// that has no owner), and the native map with inverted branches — and the
// bytes are a function of the value: two writes and a write of the read
// value are identical, whatever order the maps iterate in.
func TestMetadataRoundTripIsExact(t *testing.T) {
	_, d, nm, _, _, t1, t2 := testSetup()
	d.LinkIR(40, t1)
	d.LinkIR(40, t2)
	d.MarkShared(40)
	d.MarkShared(77) // shared, never linked
	nm.IRs[7] = []int{40, 1}
	nm.Inverted[2] = true
	first := encodeMeta(t, d, nm)
	d2, nm2, err := ReadMetadata(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ { // map iteration order differs from call to call
		if again := encodeMeta(t, d, nm); !bytes.Equal(first, again) {
			t.Fatalf("write %d of the same dictionary differs from the first", i+2)
		}
	}
	if !bytes.Equal(first, encodeMeta(t, d2, nm2)) {
		t.Fatal("writing what was read back gives different bytes")
	}
	if !reflect.DeepEqual(d.Registry, d2.Registry) {
		t.Fatalf("registry:\n%+v\n%+v", d.Registry, d2.Registry)
	}
	if logs(d) != logs(d2) {
		t.Fatalf("logs:\n%s\n%s", logs(d), logs(d2))
	}
	if !reflect.DeepEqual(nm, nm2) {
		t.Fatalf("native map:\n%+v\n%+v", nm, nm2)
	}
	// Owner lists are windows of one array: growing one must not reach the next.
	d2.LinkIR(1, t2)
	if got := d2.TasksOf(2); len(got) != 1 || got[0] != t1 {
		t.Fatalf("LinkIR on IR 1 changed IR 2's owners to %v", got)
	}
}

// logs renders Log A, Log B and the shared flags by id, in order.
func logs(d *Dictionary) string {
	var sb strings.Builder
	for _, t := range d.Tasks() {
		fmt.Fprintf(&sb, "A %d => %d\n", t, d.OperatorOf(t))
	}
	d.eachIR(func(id int, tasks []ComponentID, shared bool) {
		fmt.Fprintf(&sb, "B %d => %v shared=%v\n", id, tasks, shared)
	})
	return sb.String()
}

func TestSampleLogRoundTrip(t *testing.T) {
	in := []Sample{
		{IP: 10, TSC: 100, Event: vm.EvCycles, Addr: 4096, Tag: 3, HasRegs: true},
		{IP: 20, TSC: 200, Event: vm.EvMemLoads, Addr: 8192},
		{IP: 30, TSC: 300, Event: vm.EvCycles, Stack: []int{5, 9}, HasStack: true},
		{IP: 40, TSC: 400, Event: vm.EvBranchMiss, Stack: []int{}, HasStack: true},
		{IP: 50, TSC: math.MaxUint64, Event: vm.EvL3Miss, Addr: -8, Tag: math.MinInt64, HasRegs: true, Worker: 3, Shard: 2},
		{IP: 60, TSC: 600, Stack: []int{1, -1}, HasStack: true, Worker: math.MaxUint16, Shard: math.MaxUint16},
		{IP: -1, TSC: 700, HasRegs: true},
		// A stack without its flag is not part of the sample.
		{IP: 70, TSC: 800, Stack: []int{4}},
	}
	var buf bytes.Buffer
	if err := WriteSamples(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSamples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("count %d vs %d", len(out), len(in))
	}
	for i := range in {
		a, b := in[i], out[i]
		if !a.HasStack {
			a.Stack = nil
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("sample %d round trip:\n%+v\n%+v", i, a, b)
		}
	}
	// Stacks are windows of one array: growing one must not reach the next.
	_ = append(out[2].Stack, 99)
	if out[5].Stack[0] != 1 {
		t.Fatal("append to one sample's stack overwrote another's")
	}
	if got, err := ReadSamples(bytes.NewReader(encodeSamples(t, nil))); err != nil || len(got) != 0 {
		t.Fatalf("empty log: %v, %v", got, err)
	}
}

// TestSampleFieldsRoundTrip is the guard for the next field added to
// Sample: every field is set to a value of its own through reflection, and
// the log must bring each back. A field the record does not carry fails
// here (as Shard did, silently, in the JSON log).
func TestSampleFieldsRoundTrip(t *testing.T) {
	var in Sample
	v := reflect.ValueOf(&in).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), int64(i+1)
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Int, reflect.Int64:
			f.SetInt(n)
		case reflect.Uint8, reflect.Uint64:
			f.SetUint(uint64(n % int64(vm.NumEvents)))
		case reflect.Slice:
			f.Set(reflect.MakeSlice(f.Type(), 2, 2))
			switch e := f.Index(1); e.Kind() {
			case reflect.Int:
				e.SetInt(n)
			default:
				t.Fatalf("field %s: no rule for a slice of %s", v.Type().Field(i).Name, e.Kind())
			}
		default:
			t.Fatalf("field %s: no rule for kind %s — extend this test and the log record together", v.Type().Field(i).Name, f.Kind())
		}
		if f.IsZero() {
			t.Fatalf("field %s left at its zero value: the round trip would not see it dropped", v.Type().Field(i).Name)
		}
	}
	out, err := ReadSamples(bytes.NewReader(encodeSamples(t, []Sample{in})))
	if err != nil {
		t.Fatal(err)
	}
	got := reflect.ValueOf(&out[0]).Elem()
	for i := 0; i < v.NumField(); i++ {
		if !reflect.DeepEqual(v.Field(i).Interface(), got.Field(i).Interface()) {
			t.Errorf("field %s: wrote %v, read %v", v.Type().Field(i).Name, v.Field(i).Interface(), got.Field(i).Interface())
		}
	}
}

func TestWriteSamplesRefusesWhatTheRecordCannotHold(t *testing.T) {
	for name, s := range map[string]Sample{
		"ip beyond 32 bits":       {IP: math.MaxInt32 + 1},
		"negative ip beyond":      {IP: math.MinInt32 - 1},
		"worker beyond the field": {Worker: math.MaxUint16 + 1},
		"negative worker":         {Worker: -1},
		"shard beyond the field":  {Shard: math.MaxUint16 + 1},
		"return address beyond":   {Stack: []int{1 << 40}, HasStack: true},
		"stack deeper than 65535": {Stack: make([]int, math.MaxUint16+1), HasStack: true},
	} {
		if err := WriteSamples(io.Discard, []Sample{{}, s}); err == nil {
			t.Errorf("%s: written without error", name)
		}
	}
}

func TestWriteMetadataRefusesWhatAWordCannotHold(t *testing.T) {
	_, d, nm, _, _, t1, _ := testSetup()
	d.LinkIR(1<<32, t1)
	if err := WriteMetadata(io.Discard, d, nm); err == nil {
		t.Fatal("IR id beyond 32 bits written without error")
	}
	_, d, nm, _, _, _, _ = testSetup()
	nm.IRs[0] = []int{-3}
	if err := WriteMetadata(io.Discard, d, nm); err == nil {
		t.Fatal("negative IR id written without error")
	}
}

// TestReadMetadataFarIRID: an IR id near 2^31 is kept in far, in memory
// and when read back, and reading the file allocates nothing near a table
// of that size.
func TestReadMetadataFarIRID(t *testing.T) {
	_, d, nm, _, _, t1, t2 := testSetup()
	const far = 1<<31 - 5
	d.LinkIR(far, t1)
	d.LinkIR(far, t2)
	d.MarkShared(far + 1)
	data := encodeMeta(t, d, nm)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d2, _, err := ReadMetadata(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("reading a %d-byte file allocated %d bytes", len(data), grew)
	}
	if len(d.owner) > 1<<10 || len(d2.owner) > 1<<10 {
		t.Fatalf("dense ranges of %d and %d ids", len(d.owner), len(d2.owner))
	}
	if logs(d) != logs(d2) || len(d2.TasksOf(far)) != 2 || !d2.IsShared(far+1) {
		t.Fatalf("logs:\n%s\n%s", logs(d), logs(d2))
	}
}

func TestReadMetadataRejectsGarbage(t *testing.T) {
	if _, _, err := ReadMetadata(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// rejected reports whether both readers' views of data — sized, and
// streamed a byte at a time as a pipe without a Len might deliver it —
// fail with an error rather than a panic or a value.
func rejected(t *testing.T, what string, read func(io.Reader) error, data []byte) {
	t.Helper()
	defer func() {
		if p := recover(); p != nil {
			t.Errorf("%s: panic: %v", what, p)
		}
	}()
	if read(bytes.NewReader(data)) == nil || read(iotest.OneByteReader(bytes.NewReader(data))) == nil {
		t.Errorf("%s: accepted", what)
	}
}

func put32(data []byte, off int, v uint32) []byte {
	out := append([]byte(nil), data...)
	le.PutUint32(out[off:], v)
	return out
}

// TestReadSamplesRejects: the reader faces files from outside the process;
// every malformed input is an error, and no count sizes an allocation
// before it is checked against the input.
func TestReadSamplesRejects(t *testing.T) {
	good := encodeSamples(t, []Sample{
		{IP: 1, TSC: 10, Stack: []int{3, 4}, HasStack: true},
		{IP: 2, TSC: 20, HasRegs: true},
	})
	read := func(r io.Reader) error { _, err := ReadSamples(r); return err }
	if err := read(iotest.OneByteReader(bytes.NewReader(good))); err != nil {
		t.Fatalf("streamed good log: %v", err)
	}
	for n := 0; n < len(good); n++ {
		rejected(t, "truncated log", read, good[:n])
	}
	rec := func(i, off int) int { return sampleHeader + i*sampleRecord + off }
	for what, data := range map[string][]byte{
		"bad magic":                      append([]byte("TPSX"), good[4:]...),
		"meta-data magic":                append([]byte(metaMagic), good[4:]...),
		"unknown version":                put32(good, 4, formatVersion+1),
		"trailing byte":                  append(append([]byte(nil), good...), 0),
		"count beyond the input":         put32(good, 8, 3),
		"count of 2^60":                  put32(good, 12, 1<<28),
		"side words beyond the input":    put32(good, 16, 4),
		"side words of 2^60":             put32(good, 20, 1<<28),
		"side offset out of range":       put32(good, rec(1, 28), 7),
		"side offset overlapping":        put32(good, rec(1, 28), 1),
		"stack length without the flag":  put32(put32(put32(good, rec(0, 36), 1), rec(1, 28), 1), rec(1, 36), 1),
		"lengths beyond the section":     put32(good, rec(0, 36), 0xffff),
		"unknown flag bit":               append(append([]byte(nil), good[:rec(0, 41)]...), append([]byte{0x80 | flagStack}, good[rec(0, 42):]...)...),
		"flag bit 4":                     append(append([]byte(nil), good[:rec(1, 41)]...), append([]byte{4 | flagRegs}, good[rec(1, 42):]...)...),
		"non-zero reserved word":         put32(good, rec(1, 36), 1<<16),
		"empty input":                    nil,
		"header only, count of one":      put32(good[:sampleHeader], 8, 1),
		"header only, side word":         put32(put32(good[:sampleHeader], 8, 0), 16, 1),
		"count times record overflowing": put32(put32(good, 8, 0x86186187), 12, 0x61861861),
	} {
		rejected(t, what, read, data)
	}
}

// TestReadMetadataRejects is TestReadSamplesRejects for the meta-data file.
func TestReadMetadataRejects(t *testing.T) {
	_, d, nm, _, _, _, _ := testSetup()
	d.MarkShared(2)
	good := encodeMeta(t, d, nm)
	read := func(r io.Reader) error { _, _, err := ReadMetadata(r); return err }
	if err := read(iotest.OneByteReader(bytes.NewReader(good))); err != nil {
		t.Fatalf("streamed good file: %v", err)
	}
	for n := 0; n < len(good); n++ {
		rejected(t, "truncated file", read, good[:n])
	}
	rejected(t, "trailing byte", read, append(append([]byte(nil), good...), 0))
	rejected(t, "sample-log magic", read, append([]byte(sampleMagic), good[4:]...))
	rejected(t, "unknown version", read, put32(good, 4, formatVersion+1))
	// Every word of the file, set to values no field may hold: a count
	// beyond the input, an unregistered id, a routine or list out of range,
	// an unknown level or region. Whatever is still accepted must be sound
	// enough to attribute and report on.
	for off := 8; off+4 <= len(good)-int(le.Uint32(good[8+4*9:])); off += 4 {
		for _, v := range []uint32{0, 1, 0x7fffffff, 0xffffffff, le.Uint32(good[off:]) + 1} {
			if v == le.Uint32(good[off:]) {
				continue
			}
			data := put32(good, off, v)
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Errorf("word at %d = %#x: panic: %v", off, v, p)
					}
				}()
				d2, nm2, err := ReadMetadata(bytes.NewReader(data))
				if err != nil {
					return
				}
				p := BuildProfile(NewAttributor(d2, nm2), []Sample{{IP: 0}, {IP: 3}, {IP: 4, Tag: 5, HasRegs: true}, {IP: 5}, {IP: 7}})
				p.OperatorCosts()
				p.TaskCosts()
				p.BuildTimeline(4)
				d2.Dump()
			}()
		}
	}
	// The checks the sweep cannot name one by one.
	word := func(i int) int { return 8 + 4*i }
	comp0 := word(metaCounts)
	for what, data := range map[string][]byte{
		"kernel operator unregistered": put32(good, word(1), 99),
		"kernel task zero":             put32(good, word(2), 0),
		"component count of 2^32-1":    put32(good, word(0), 0xffffffff),
		"parent beyond the registry":   put32(good, comp0+4, 99),
		"unknown level":                put32(good, comp0+16, 9),
		"name longer than the strings": put32(good, comp0+8, 1<<20),
	} {
		rejected(t, what, read, data)
	}
	if _, _, err := ReadMetadata(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}
