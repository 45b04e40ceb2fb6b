package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/vm"
)

// The paper's post-processing is offline: "at the end of the compilation
// phase we write all logs into a meta-data file, which is read by the
// post-processing phase" (§5.2.2), and samples arrive separately via perf
// script. This file is that split: two versioned little-endian binary
// files with one writer and one reader each (layouts: DESIGN.md §4,
// "Offline post-processing"). The meta-data file holds what attribution
// needs — registry, Logs A and B, shared flags, native debug info; the
// sample log holds the raw samples. Both are fixed-width sections whose
// sizes the header declares, so a reader checks every count against the
// input in one comparison before it allocates, decodes without per-record
// allocation, and rejects what it does not know. The bytes written depend
// only on the value written.

const (
	sampleMagic   = "TPSL"
	metaMagic     = "TPMD"
	formatVersion = 1

	sampleHeader = 24 // magic, version u32, sample count u64, side words u64
	sampleRecord = 42
	metaCounts   = 10 // u32 counts after the meta-data magic and version

	flagRegs, flagStack = 1, 2
)

var le = binary.LittleEndian

// open reads all of r and checks magic and version. A reader that knows
// how much it holds (bytes.Reader, bytes.Buffer) costs one exact allocation.
func open(r io.Reader, magic string, header int) (data []byte, err error) {
	if l, ok := r.(interface{ Len() int }); ok {
		data = make([]byte, l.Len())
		_, err = io.ReadFull(r, data)
	} else {
		data, err = io.ReadAll(r)
	}
	switch {
	case err != nil:
	case len(data) < header || string(data[:4]) != magic:
		err = fmt.Errorf("not a %s file", magic)
	case le.Uint32(data[4:]) != formatVersion:
		err = fmt.Errorf("version %d, this reader knows %d", le.Uint32(data[4:]), formatVersion)
	}
	if err != nil {
		return nil, fmt.Errorf("core: reading %s file: %w", magic, err)
	}
	return data, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// WriteSamples serializes a sample log. It refuses a sample whose fields
// the record cannot hold rather than truncating them.
func WriteSamples(w io.Writer, samples []Sample) error {
	buf := make([]byte, sampleHeader+len(samples)*sampleRecord)
	var side []byte // the side section: the stack words of each sample
	for i := range samples {
		s := &samples[i]
		stack := s.Stack
		if !s.HasStack {
			stack = nil
		}
		if int(int32(s.IP)) != s.IP || uint(s.Worker) > math.MaxUint16 || uint(s.Shard) > math.MaxUint16 ||
			len(stack) > math.MaxUint16 || uint64(len(side)/4) > math.MaxUint32 {
			return fmt.Errorf("core: sample %d does not fit the log record (ip %d, worker %d, shard %d, %d frames)",
				i, s.IP, s.Worker, s.Shard, len(stack))
		}
		r := buf[sampleHeader+i*sampleRecord:][:sampleRecord]
		le.PutUint64(r[0:], s.TSC)
		le.PutUint64(r[8:], uint64(s.Addr))
		le.PutUint64(r[16:], uint64(s.Tag))
		le.PutUint32(r[24:], uint32(int32(s.IP)))
		le.PutUint32(r[28:], uint32(len(side)/4))
		le.PutUint16(r[32:], uint16(s.Worker))
		le.PutUint16(r[34:], uint16(s.Shard))
		le.PutUint16(r[36:], uint16(len(stack)))
		// r[38:40] is reserved and stays zero.
		r[40] = uint8(s.Event)
		r[41] = uint8(b2i(s.HasRegs)*flagRegs | b2i(s.HasStack)*flagStack)
		for _, ra := range stack {
			if int(int32(ra)) != ra {
				return fmt.Errorf("core: sample %d: return address %d beyond 32 bits", i, ra)
			}
			side = le.AppendUint32(side, uint32(int32(ra)))
		}
	}
	copy(buf, sampleMagic)
	le.PutUint32(buf[4:], formatVersion)
	le.PutUint64(buf[8:], uint64(len(samples)))
	le.PutUint64(buf[16:], uint64(len(side)/4))
	_, err := w.Write(append(buf, side...))
	return err
}

// ReadSamples parses a sample log into one []Sample; every stack is a
// capacity-capped window of one shared array. A captured but empty stack
// decodes as empty and non-nil.
func ReadSamples(r io.Reader) ([]Sample, error) {
	data, err := open(r, sampleMagic, sampleHeader)
	if err != nil {
		return nil, err
	}
	count, side := le.Uint64(data[8:]), le.Uint64(data[16:])
	body := uint64(len(data) - sampleHeader)
	if count > body/sampleRecord || side > math.MaxUint32 || count*sampleRecord+4*side != body {
		return nil, fmt.Errorf("core: reading samples: header declares %d samples and %d side words, file holds %d bytes", count, side, body)
	}
	recs, words := data[sampleHeader:], data[sampleHeader+count*sampleRecord:]
	nStack := 0
	for i := 0; i < int(count); i++ {
		nStack += int(le.Uint16(recs[i*sampleRecord+36:]))
	}
	if uint64(nStack) != side {
		return nil, fmt.Errorf("core: reading samples: records reference %d side words, section holds %d", nStack, side)
	}
	out := make([]Sample, count)
	stacks := make([]int, 0, nStack)
	word := 0
	for i := range out {
		r := recs[i*sampleRecord:][:sampleRecord]
		ns, flags := int(le.Uint16(r[36:])), r[41]
		if int(le.Uint32(r[28:])) != word || le.Uint16(r[38:]) != 0 || flags&^(flagRegs|flagStack) != 0 ||
			ns > 0 && flags&flagStack == 0 {
			return nil, fmt.Errorf("core: reading samples: record %d: side offset, reserved word or flags inconsistent", i)
		}
		s := &out[i]
		s.TSC, s.Addr, s.Tag = le.Uint64(r[0:]), int64(le.Uint64(r[8:])), int64(le.Uint64(r[16:]))
		s.IP, s.Event = int(int32(le.Uint32(r[24:]))), vm.Event(r[40])
		s.Worker, s.Shard = int(le.Uint16(r[32:])), int(le.Uint16(r[34:]))
		s.HasRegs, s.HasStack = flags&flagRegs != 0, flags&flagStack != 0
		if s.HasStack {
			for end := word + ns; word < end; word++ {
				stacks = append(stacks, int(int32(le.Uint32(words[4*word:]))))
			}
			s.Stack = stacks[len(stacks)-ns : len(stacks) : len(stacks)]
		}
	}
	return out, nil
}

// WriteMetadata serializes the compile-time state, every field a u32
// word. Log A is written in task order and Log B in IR-id order, so the
// bytes depend only on the logs' content. It refuses a value beyond 32 bits.
func WriteMetadata(w io.Writer, d *Dictionary, nm *NativeMap) error {
	var bad error
	var head, comps, logA, logB, owners, native, irs, rlens []uint32
	var strs []byte
	put := func(section *[]uint32, values ...int) {
		for _, v := range values {
			if v < 0 || int64(v) > math.MaxUint32 {
				bad = fmt.Errorf("core: writing metadata: %d does not fit a 32-bit field", v)
			}
			*section = append(*section, uint32(v))
		}
	}
	reg := d.Registry
	for i := range reg.comps {
		c := &reg.comps[i]
		put(&comps, c.Pipeline+1, int(c.Parent), len(c.Name), len(c.Kind), int(c.Level))
		strs = append(append(strs, c.Name...), c.Kind...)
	}
	for _, t := range d.Tasks() {
		put(&logA, int(t), int(d.OperatorOf(t)))
	}
	nB := 0
	d.eachIR(func(id int, tasks []ComponentID, shared bool) {
		put(&logB, id, len(tasks), b2i(shared))
		for _, t := range tasks {
			put(&owners, int(t))
		}
		nB++
	})
	routines := map[string]int{"": 0} // name → index in the routine table, from 1
	for i, name := range nm.Routine {
		rt, seen := routines[name]
		if !seen {
			rt = len(routines)
			routines[name] = rt
			put(&rlens, len(name))
			strs = append(strs, name...)
		}
		put(&native, rt, len(nm.IRs[i]), int(nm.Region[i]), b2i(nm.Inverted[i]))
		put(&irs, nm.IRs[i]...)
	}
	put(&head, len(reg.comps), int(reg.KernelOperator), int(reg.KernelTask), len(logA)/2, nB,
		len(owners), len(nm.Routine), len(irs), len(rlens), len(strs))
	if bad != nil {
		return bad
	}
	buf := le.AppendUint32([]byte(metaMagic), formatVersion)
	for _, section := range [][]uint32{head, comps, logA, logB, owners, native, irs, rlens} {
		for _, v := range section {
			buf = le.AppendUint32(buf, v)
		}
	}
	_, err := w.Write(append(buf, strs...))
	return err
}

// ReadMetadata reconstructs a dictionary and native map. Every component
// id in the file must be registered in it, so reports over the result
// never meet an unknown id.
func ReadMetadata(r io.Reader) (*Dictionary, *NativeMap, error) {
	data, err := open(r, metaMagic, 8+4*metaCounts)
	if err != nil {
		return nil, nil, err
	}
	fail := func(format string, args ...interface{}) (*Dictionary, *NativeMap, error) {
		return nil, nil, fmt.Errorf("core: reading metadata: "+format, args...)
	}
	word := func(i uint64) uint64 { return uint64(le.Uint32(data[8+4*i:])) }
	nComp, kernelOp, kernelTask, nA, nB := word(0), word(1), word(2), word(3), word(4)
	nOwner, nNative, nIR, nRoutine, nStr := word(5), word(6), word(7), word(8), word(9)
	// Section starts, in words after magic and version.
	comps := uint64(metaCounts)
	logA := comps + 5*nComp
	logB := logA + 2*nA
	owners := logB + 3*nB
	native := owners + nOwner
	irs := native + 4*nNative
	rlens := irs + nIR
	strs := rlens + nRoutine
	if nComp > math.MaxInt32 || 8+4*strs+nStr != uint64(len(data)) {
		return fail("section sizes in the header do not add up to the file's %d bytes", len(data))
	}
	names, at := string(data[8+4*strs:]), uint64(0) // every name is a window of this one string
	name := func(size uint64) (string, bool) {
		if size > nStr-at {
			return "", false
		}
		at += size
		return names[at-size : at], true
	}
	registered := func(id uint64) bool { return id >= 1 && id <= nComp }

	if !registered(kernelOp) || !registered(kernelTask) {
		return fail("kernel components %d/%d not among the %d registered", kernelOp, kernelTask, nComp)
	}
	reg := &Registry{comps: make([]Component, nComp), KernelOperator: ComponentID(kernelOp), KernelTask: ComponentID(kernelTask)}
	for i := range reg.comps {
		c := comps + 5*uint64(i)
		cname, ok1 := name(word(c + 2))
		kind, ok2 := name(word(c + 3))
		if word(c+1) > nComp || word(c+4) > uint64(LevelNative) || !ok1 || !ok2 {
			return fail("component %d: parent, level or name out of range", i+1)
		}
		reg.comps[i] = Component{ID: ComponentID(i + 1), Level: Level(word(c + 4)), Name: cname, Kind: kind,
			Pipeline: int(word(c)) - 1, Parent: ComponentID(word(c + 1))}
	}
	d := &Dictionary{Registry: reg, taskToOp: make([]ComponentID, nComp+1)}
	for i, last := uint64(0), uint64(0); i < nA; i++ {
		task, op := word(logA+2*i), word(logA+2*i+1)
		if task <= last || !registered(task) || !registered(op) {
			return fail("Log A entry %d (%d => %d) out of order or unregistered", i, task, op)
		}
		d.taskToOp[task], last = ComponentID(op), task
	}
	for i := range reg.comps { // a tag or an owner may name any task: each needs its operator
		if d.taskToOp[i+1] == NoComponent && reg.comps[i].Level == LevelTask {
			return fail("task %d has no Log A entry", i+1)
		}
	}
	pool := make([]ComponentID, nOwner)
	for i := range pool {
		t := word(owners + uint64(i))
		if !registered(t) || d.taskToOp[t] == NoComponent {
			return fail("Log B owner %d has no Log A entry", t)
		}
		pool[i] = ComponentID(t)
	}
	// The dense range ends at the largest IR id, but reaches no further
	// than the entry count allows: an id beyond goes to far.
	if nB > 0 {
		d.resize(int(min(word(logB+3*(nB-1))+1, 2*nB+denseSlack)))
	}
	used := uint64(0)
	for i, next := uint64(0), uint64(0); i < nB; i++ {
		id, n, shared := word(logB+3*i), word(logB+3*i+1), word(logB+3*i+2)
		if id < next || n > nOwner-used || shared > 1 || n == 0 && shared == 0 {
			return fail("Log B entry %d (IR %d) out of order, empty or beyond the owner section", i, id)
		}
		if tasks := pool[used : used+n : used+n]; id >= uint64(len(d.owner)) {
			e := d.farAt(int(id))
			e.shared = shared == 1
			if n > 0 {
				e.tasks = tasks
			}
		} else {
			if n > 1 {
				d.lists = append(d.lists, tasks)
				d.more[id] = int32(len(d.lists))
			}
			if n > 0 {
				d.owner[id] = tasks[0]
			}
			if shared == 1 {
				d.MarkShared(int(id))
			}
		}
		used, next = used+n, id+1
	}
	routines, ok := make([]string, nRoutine+1), true // routines[0] is "no routine"
	for i := uint64(0); i < nRoutine && ok; i++ {
		routines[i+1], ok = name(word(rlens + i))
	}
	if used != nOwner || !ok || at != nStr {
		return fail("Log B owners or names do not fill their sections (%d of %d owners, %d of %d bytes)", used, nOwner, at, nStr)
	}
	irIDs := make([]int, nIR)
	for i := range irIDs {
		irIDs[i] = int(word(irs + uint64(i)))
	}
	nm := NewNativeMap(int(nNative))
	used = 0
	for i := range nm.Region {
		c := native + 4*uint64(i)
		rt, n, region, inverted := word(c), word(c+1), word(c+2), word(c+3)
		if rt > nRoutine || n > nIR-used || region > uint64(RegionLibrary) || inverted > 1 {
			return fail("native instruction %d: routine, IR list, region or flag out of range", i)
		}
		if n > 0 {
			nm.IRs[i] = irIDs[used : used+n : used+n]
		}
		nm.Region[i], nm.Routine[i], nm.Inverted[i] = RegionKind(region), routines[rt], inverted == 1
		used += n
	}
	if used != nIR {
		return fail("native map references %d IR ids, section holds %d", used, nIR)
	}
	return d, nm, nil
}
