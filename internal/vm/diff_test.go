package vm

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/xrand"
)

// Differential tests: the run loop against the reference CPU of
// reference_test.go, over generated programs, scripts of Run / CallFunction
// / Restart / ReArm calls and every sampling configuration. Everything a
// caller or a sampling hook can observe must agree.

// machine is what the two CPUs have in common.
type machine interface {
	Load(*isa.Program)
	Run(uint64) (Stats, error)
	CallFunction(int, uint64) (Stats, error)
	Restart()
	ReArm(uint64)
	IP() int
	TSC() uint64
	CallStack() []int
	LastAddr() int64
}

// observed is the state of a CPU as a hook or a caller sees it.
type observed struct {
	IP       int
	TSC      uint64
	LastAddr int64
	Regs     [isa.NumRegs]int64
	Stack    []int
	Stats    Stats
}

// sampleObs is one hook call; stepObs one script action's outcome.
type sampleObs struct {
	Ev   Event
	Addr int64
	observed
}

type stepObs struct {
	Returned Stats
	Err      string
	observed
}

type outcome struct {
	Samples []sampleObs
	Steps   []stepObs
	Heap    []byte
}

// recorder backs the sampling hooks of both CPUs. The cycles it charges
// vary from sample to sample, so a dropped or misplaced sample shifts every
// later timestamp.
type recorder struct {
	out     *outcome
	observe func() observed
}

func (r *recorder) sample(ev Event, addr int64) uint64 {
	r.out.Samples = append(r.out.Samples, sampleObs{ev, addr, r.observe()})
	return [...]uint64{0, 240, 1000}[len(r.out.Samples)%3]
}

type cpuHook struct{ *recorder }

func (h cpuHook) Sample(_ *CPU, ev Event, addr int64) uint64 { return h.sample(ev, addr) }

type refHook struct{ *recorder }

func (h refHook) Sample(_ *refCPU, ev Event, addr int64) uint64 { return h.sample(ev, addr) }

func observe(m machine, regs *[isa.NumRegs]int64, st *Stats) observed {
	return observed{
		IP: m.IP(), TSC: m.TSC(), LastAddr: m.LastAddr(), Regs: *regs,
		Stack: append([]int{}, m.CallStack()...), Stats: *st,
	}
}

// Script actions.
const (
	actRun = iota
	actCall
	actRestart
	actReArm
	numActs
)

type action struct {
	kind   int
	entry  int
	budget uint64
	seed   uint64
}

// diffCase is one program with its machine and sampling configuration and
// the calls made on it. event == NumEvents leaves the CPU unarmed.
type diffCase struct {
	code   []isa.Instr
	heap   int
	event  Event
	period int64
	jitter int64
	script []action
}

func (dc *diffCase) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "heap=%d event=%v period=%d jitter=%d script=%+v\n", dc.heap, dc.event, dc.period, dc.jitter, dc.script)
	b.WriteString((&isa.Program{Code: dc.code}).Disasm())
	return b.String()
}

// play runs dc's script on m. arm installs the recording hook.
func (dc *diffCase) play(m machine, heap []byte, regs *[isa.NumRegs]int64, st *Stats, arm func(*recorder)) *outcome {
	out := &outcome{}
	rec := &recorder{out: out, observe: func() observed { return observe(m, regs, st) }}
	for i := range heap {
		heap[i] = byte(i*7 + i>>8)
	}
	m.Load(&isa.Program{Code: dc.code})
	if dc.event != NumEvents {
		arm(rec)
	}
	for _, a := range dc.script {
		var step stepObs
		var err error
		switch a.kind {
		case actRun:
			step.Returned, err = m.Run(a.budget)
		case actCall:
			step.Returned, err = m.CallFunction(a.entry, a.budget)
		case actRestart:
			m.Restart()
		case actReArm:
			m.ReArm(a.seed)
		}
		if err != nil {
			step.Err = err.Error()
		}
		step.observed = rec.observe()
		out.Steps = append(out.Steps, step)
	}
	out.Heap = heap
	return out
}

// runBoth plays dc on the reference, on a new CPU and on a recycled one, and
// compares both with the reference. It reports false when the reference
// itself panicked: the parent indexed registers and sliced the heap
// unchecked, and what it did then is not a behaviour to reproduce.
func runBoth(t testing.TB, dc *diffCase) (defined bool) {
	t.Helper()
	code := append([]isa.Instr{}, dc.code...)

	var want *outcome
	func() {
		defer func() {
			if recover() != nil {
				want = nil
			}
		}()
		ref := newRefCPU(dc.heap)
		want = dc.play(ref, ref.Heap, &ref.Regs, &ref.Stats, func(r *recorder) {
			ref.Arm(refHook{r}, dc.event, dc.period, dc.jitter)
		})
	}()
	if want == nil {
		return false
	}

	// A new CPU, then the one every earlier case ran on, reset: a recycled
	// machine must be as good as new whatever the last program left in it.
	if recycled == nil {
		recycled = New(1 << 20)
		dirty(t, recycled)
	}
	for _, c := range []*CPU{New(dc.heap), recycled} {
		who := "new CPU"
		if c == recycled {
			who = "recycled CPU"
			c.Reset(dc.heap)
		}
		got := dc.play(c, c.Heap, &c.Regs, &c.Stats, func(r *recorder) {
			c.Arm(cpuHook{r}, dc.event, dc.period, dc.jitter)
		})

		if !reflect.DeepEqual(code, dc.code) {
			t.Fatalf("%s: the shared program was written to\n%s", who, dc)
		}
		for i := range want.Samples {
			if i >= len(got.Samples) || !reflect.DeepEqual(got.Samples[i], want.Samples[i]) {
				t.Fatalf("%s: sample %d of %d/%d differs\n got %+v\nwant %+v\n%s", who, i, len(got.Samples), len(want.Samples), at(got.Samples, i), want.Samples[i], dc)
			}
		}
		if len(got.Samples) != len(want.Samples) {
			t.Fatalf("%s: %d samples, reference took %d\n%s", who, len(got.Samples), len(want.Samples), dc)
		}
		for i := range want.Steps {
			if !reflect.DeepEqual(got.Steps[i], want.Steps[i]) {
				t.Fatalf("%s: after action %d\n got %+v\nwant %+v\n%s", who, i, got.Steps[i], want.Steps[i], dc)
			}
		}
		if !reflect.DeepEqual(got.Heap, want.Heap) {
			t.Fatalf("%s: heaps differ\n%s", who, dc)
		}
	}
	return true
}

// recycled is the CPU runBoth resets for every case, so each case is the
// dirtying program of the next (neither the tests nor a fuzz worker run
// cases concurrently). It starts out as dirty as reset_test.go can make it.
var recycled *CPU

func at(s []sampleObs, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "nothing"
}

// genCase decodes a byte string into a case. Every byte string is a valid
// encoding, which makes this the fuzz target's front end; the seeded test
// feeds it random bytes. Registers stay inside the file; opcodes, branch
// targets and addresses do not.
func genCase(data []byte) *diffCase {
	pos := 0
	next := func() int {
		if pos >= len(data) {
			return 0
		}
		pos++
		return int(data[pos-1])
	}
	hb := next()
	dc := &diffCase{heap: []int{0, 5, 64, 4096, 1 << 14}[hb%5]}
	// A heap just above 8 MiB reaches L3's tags (see Hierarchy). It is
	// drawn rarely: every case fills and compares the whole heap.
	if hb == 255 {
		dc.heap = 8<<20 + 72
	}
	dc.event = Event(next() % int(NumEvents+1))
	// Periods beyond a hundred are the ones a run meets in use (the
	// profiler's default is 5000).
	if p := next(); p < 192 {
		dc.period = int64(1 + p%97)
	} else {
		dc.period = []int64{1499, 5000, 5003}[p%3]
	}
	dc.jitter = []int64{0, 0, 2, 8, 64}[next()%5]
	n := (len(data) - pos - 12) / 6
	if n < 1 {
		n = 1
	}
	if n > 96 {
		n = 96
	}
	for i, acts := 0, 1+next()%4; i < acts; i++ {
		a := action{kind: next() % numActs, entry: next() % (n + 1), budget: uint64(1 + next()*8)}
		a.seed = uint64(a.entry)*0x9e3779b97f4a7c15 + a.budget
		dc.script = append(dc.script, a)
	}
	dc.script = append(dc.script, action{kind: actRun, budget: 3000})

	h := int64(dc.heap)
	palette := []int64{0, 1, 2, 3, 7, 8, 16, 63, 64, -1, -8, h, h - 1, h - 3, h - 4, h - 7, h - 8, h / 2 &^ 7, h / 3,
		int64(n), int64(n - 1), 1 << 40, math.MinInt64, math.MaxInt64, 0x5bd1e995}
	imm := func() int64 {
		b := next()
		if b < 128 {
			return palette[b%len(palette)]
		}
		return int64(b-192) * int64(1+next()%9)
	}
	target := func() int64 {
		if b := next(); b%8 != 0 {
			return int64(b % n)
		}
		return imm()
	}
	for i := 0; i < n; i++ {
		op := isa.Op(next())
		if op < 224 {
			op %= isa.CALL + 1 // mostly instructions that keep running
		} else if op < 254 {
			op %= isa.TRAP + 3 // now and then RET, HALT, TRAP, or no opcode at all
		}
		flags := next()
		in := isa.Instr{
			Op: op, Dst: isa.Reg(next() % isa.NumRegs), Src1: isa.Reg(flags >> 3 % isa.NumRegs), Src2: isa.Reg(next() % isa.NumRegs),
			UseImm: flags&1 != 0, Scaled: flags&2 != 0, Abs: flags&4 != 0,
			Imm: imm(), Imm2: target(),
		}
		switch op {
		case isa.JMP, isa.JNZ, isa.JZ, isa.CALL:
			in.Imm = target()
		}
		dc.code = append(dc.code, in)
	}
	return dc
}

func randomBytes(rng *xrand.Rand, n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(rng.Uint64() >> 32)
	}
	return data
}

// TestRunMatchesReference drives seeded random cases through genCase and
// then a grid of hand-built ones: every way a run ends, stopped at every
// instruction boundary, unarmed and under every event.
func TestRunMatchesReference(t *testing.T) {
	rng := xrand.New(1)
	cases, undefined := 3000, 0
	if testing.Short() {
		cases = 300
	}
	tagged := 0 // cases whose cache model answers L3 from its tags, not the bitmap
	for i := 0; i < cases; i++ {
		dc := genCase(randomBytes(rng, 24+rng.Intn(600)))
		if !runBoth(t, dc) {
			undefined++
			continue
		}
		if heapLines(dc.heap) > l3Sets*l3Ways {
			tagged++
		}
	}
	if undefined*10 > cases {
		t.Errorf("the reference panicked on %d of %d generated cases; the generator is not testing much", undefined, cases)
	}
	if !testing.Short() && tagged == 0 {
		t.Errorf("no generated case has a heap above 8 MiB; L3's tags go untested")
	}
	t.Logf("%d of %d cases answer L3 from tags, the rest from the line bitmap", tagged, cases-undefined)

	for name, code := range endings() {
		for ev := EvCycles; ev <= NumEvents; ev++ {
			for budget := uint64(0); budget < 24; budget++ {
				dc := &diffCase{
					code: code, heap: 4096, event: ev,
					period: []int64{1, 2, 5, 97}[budget%4], jitter: []int64{0, 4}[budget/4%2],
					script: []action{
						{kind: actRun, budget: budget},
						{kind: actReArm, seed: budget},
						{kind: actRun, budget: 2 * budget}, // resumes where the budget stopped it
						{kind: actRestart},
						{kind: actRun, budget: 40},
						{kind: actCall, entry: len(code) - 3, budget: budget},
						{kind: actCall, entry: len(code), budget: 1},
					}}
				if !runBoth(t, dc) {
					t.Fatalf("%s: the reference panicked\n%s", name, dc)
				}
			}
		}
	}
}

// endings is one program per way a run can end, each with a loop that
// loads, stores, branches both ways and calls before it gets there, and a
// three-instruction function at the end for CallFunction.
func endings() map[string][]isa.Instr {
	body := []isa.Instr{
		{Op: isa.MOVRI, Dst: 1, Imm: 512},                                 // 0
		{Op: isa.MOVRI, Dst: 2, Imm: 0},                                   // 1
		{Op: isa.LOAD64, Dst: 3, Src1: 1, Src2: 2, Scaled: true},          // 2: loop
		{Op: isa.LOAD8, Dst: 4, Src1: 1, Imm: 2048},                       // 3
		{Op: isa.MUL, Dst: 3, Src1: 3, Src2: 4},                           // 4
		{Op: isa.STORE32, Dst: 3, Src1: 1, Src2: 2, Scaled: true, Imm: 4}, // 5
		{Op: isa.AND, Dst: 5, Src1: 2, UseImm: true, Imm: 1},              // 6
		{Op: isa.JNZ, Src1: 5, Imm: 9},                                    // 7
		{Op: isa.CALL, Imm: 0},                                            // 8: patched to the function
		{Op: isa.ADD, Dst: 2, Src1: 2, UseImm: true, Imm: 1},              // 9
		{Op: isa.JLT, Src1: 2, UseImm: true, Imm: 3, Imm2: 2},             // 10
	}
	fn := []isa.Instr{
		{Op: isa.CRC32, Dst: 6, Src1: 3, Src2: 2},
		{Op: isa.STORE8, Dst: 6, Abs: true, Imm: 4095},
		{Op: isa.RET},
	}
	tails := map[string][]isa.Instr{
		"halt":         {{Op: isa.HALT}},
		"jump past":    {{Op: isa.JMP, Imm: 1 << 20}},
		"jump before":  {{Op: isa.JMP, Imm: -1}},
		"stray ret":    {{Op: isa.RET}},
		"trap":         {{Op: isa.TRAP, Imm: 7}},
		"illegal":      {{Op: isa.TRAP + 1}},
		"illegal 255":  {{Op: 255}},
		"div by zero":  {{Op: isa.DIV, Dst: 1, Src1: 1, Src2: 9}},
		"mod by zero":  {{Op: isa.MOD, Dst: 1, Src1: 1, UseImm: true}},
		"load8 oob":    {{Op: isa.LOAD8, Dst: 1, Abs: true, Imm: 4096}},
		"load16 oob":   {{Op: isa.LOAD16, Dst: 1, Src2: 2, Abs: true, Scaled: true, Imm: 4095}},
		"load32 oob":   {{Op: isa.LOAD32, Dst: 1, Abs: true, Imm: 4093}},
		"load64 oob":   {{Op: isa.LOAD64, Dst: 1, Src1: 1, Imm: 4096 - 512 - 7}},
		"load64 neg":   {{Op: isa.LOAD64, Dst: 1, Abs: true, Imm: -1}},
		"store8 oob":   {{Op: isa.STORE8, Dst: 1, Abs: true, Imm: -1}},
		"store32 oob":  {{Op: isa.STORE32, Dst: 1, Src1: 1, Src2: 1, Scaled: true}},
		"store64 oob":  {{Op: isa.STORE64, Dst: 1, Abs: true, Imm: 4089}},
		"last bytes":   {{Op: isa.STORE64, Dst: 1, Abs: true, Imm: 4088}, {Op: isa.LOAD32, Dst: 1, Abs: true, Imm: 4092}, {Op: isa.LOAD16, Dst: 3, Abs: true, Imm: 4094}, {Op: isa.LOAD8, Dst: 2, Abs: true, Imm: 4095}, {Op: isa.HALT}},
		"endless loop": {{Op: isa.JMP, Imm: 2}},
	}
	out := map[string][]isa.Instr{}
	for name, tail := range tails {
		code := append(append(append([]isa.Instr{}, body...), tail...), fn...)
		code[8].Imm = int64(len(body) + len(tail))
		out[name] = code
	}
	return out
}

// FuzzRunMatchesReference lets the fuzzer write the program, the machine
// and the script (see genCase).
func FuzzRunMatchesReference(f *testing.F) {
	rng := xrand.New(2)
	for i := 0; i < 8; i++ {
		f.Add(randomBytes(rng, 64<<uint(i%4)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		runBoth(t, genCase(data))
	})
}

// TestBudgetErrorIsTyped: the budget error keeps its text and gains a type.
func TestBudgetErrorIsTyped(t *testing.T) {
	c := New(64)
	c.Load(&isa.Program{Code: []isa.Instr{{Op: isa.NOP}, {Op: isa.JMP, Imm: 0}}})
	_, err := c.Run(5)
	var be *BudgetError
	if !errors.As(err, &be) || be.Budget != 5 || be.IP != 1 {
		t.Fatalf("Run(5) = %v (%T), want *BudgetError{5, 1}", err, err)
	}
	if want := "vm: instruction budget (5) exhausted at ip=1"; err.Error() != want {
		t.Fatalf("text %q, want %q", err, want)
	}
	// CallFunction's budget is relative; the error reports the absolute one.
	_, err = c.CallFunction(0, 3)
	if !errors.As(err, &be) || be.Budget != 8 {
		t.Fatalf("CallFunction(0, 3) after 5 instructions = %v, want a budget of 8", err)
	}
}
