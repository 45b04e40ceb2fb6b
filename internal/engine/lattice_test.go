package engine

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"testing"

	"repro/internal/catalog"
	"repro/internal/codegen"
	"repro/internal/datagen"
	"repro/internal/mview"
	"repro/internal/plan"
	"repro/internal/pmu"
	"repro/internal/queries"
	"repro/internal/ref"
	"repro/internal/sqlparse"
	"repro/internal/vm"
)

// The equivalence lattice. What a statement computes must not depend on
// how it runs: every run returns the reference executor's rows, and runs
// that differ only on axes that promise it leave byte-identical heaps and
// canonical profiles. Each differential test of the package is a lattice:
// a source (a catalog and its statements) and the axes it varies. The
// harness runs the statements at every cell of a covering array over the
// axes, in which each value pair of each two axes meets in some cell (most
// interaction faults take two factors: Kuhn, Wallace and Gallo, IEEE TSE
// 2004), plus the serial and the all-maximum corners.

// cell is one execution configuration.
type cell struct {
	// opts are the compile options and the run knobs (Workers,
	// MorselRows, Shards, ShardPruning) of the cell.
	opts        Options
	incremental bool // the catalog was grown to its rows by appends
	views       bool // statements may be rewritten onto the source's views
	pinned      bool // runs bind a snapshot taken before the catalog grew on
	recycled    bool // runs reuse the test's session and must equal runs on new machines
	event       int  // evNone, evInstRetired, evMemLoads, evMergeRegs or evPGO
}

func (c cell) String() string {
	o := c.opts
	return fmt.Sprintf("workers=%d morsel=%d shards=%d pruning=%v partitions=%d optimize=%v incremental=%v views=%v pinned=%v recycled=%v event=%d",
		o.Workers, o.MorselRows, o.Shards, o.ShardPruning, o.Partitions, o.Optimize.CSE, c.incremental, c.views, c.pinned, c.recycled, c.event)
}

// serial reports whether the cell runs on the one-core path, whose heap
// ends where the merge area begins and whose profile has no morsel
// prologues.
func (c cell) serial() bool { return c.opts.Workers < 1 && c.opts.Shards < 1 }

// compileOptions are the cell's options without its run knobs.
func (c cell) compileOptions() Options {
	o := c.opts
	o.Workers, o.MorselRows, o.Shards, o.ShardPruning = 0, 0, 0, false
	return o
}

// The event axis's values: unprofiled; the count events of the profile
// promise; instructions retired at a short period with registers, which
// samples merge kernels; and the PGO sampling (cycles with timestamps and
// registers).
const (
	evNone = iota
	evInstRetired
	evMemLoads
	evMergeRegs
	evPGO
)

// axis is one dimension of the lattice: its values, how a value sets a
// cell, and whether cells differing only here promise identical bytes.
type axis struct {
	name string
	vals []int
	set  func(*cell, int)
	same bool
}

// at restricts an axis to some of its values.
func (a axis) at(vals ...int) axis {
	a.vals = vals
	return a
}

func knobAxis(name string, same bool, set func(*Options, int)) func(...int) axis {
	return func(vals ...int) axis {
		return axis{name, vals, func(c *cell, v int) { set(&c.opts, v) }, same}
	}
}

func flagAxis(name string, same bool, set func(*cell, bool)) axis {
	return axis{name, []int{0, 1}, func(c *cell, v int) { set(c, v == 1) }, same}
}

var (
	workersAxis    = knobAxis("workers", true, func(o *Options, v int) { o.Workers = v })
	morselAxis     = knobAxis("morsel", false, func(o *Options, v int) { o.MorselRows = v })
	shardsAxis     = knobAxis("shards", true, func(o *Options, v int) { o.Shards = v })
	partitionsAxis = knobAxis("partitions", false, func(o *Options, v int) { o.Partitions = v })
	pruningAxis    = flagAxis("pruning", false, func(c *cell, on bool) { c.opts.ShardPruning = on })
	ingestAxis     = flagAxis("ingest", true, func(c *cell, on bool) { c.incremental = on })
	viewsAxis      = flagAxis("views", false, func(c *cell, on bool) { c.views = on })
	pinnedAxis     = flagAxis("pinned", true, func(c *cell, on bool) { c.pinned = on })
	recycledAxis   = flagAxis("recycled", true, func(c *cell, on bool) { c.recycled = on })
)

func eventAxis(vals ...int) axis {
	return axis{"event", vals, func(c *cell, v int) { c.event = v }, false}
}

// optionsAxis replaces a cell's compile options, keeping its run knobs.
func optionsAxis(opts ...Options) axis {
	vals := make([]int, len(opts))
	for i := range vals {
		vals[i] = i
	}
	return axis{"options", vals, func(c *cell, i int) {
		o := opts[i]
		o.Workers, o.MorselRows, o.Shards, o.ShardPruning = c.opts.Workers, c.opts.MorselRows, c.opts.Shards, c.opts.ShardPruning
		c.opts = o
	}, false}
}

// cover returns rows of value indices, one per cell: every value pair of
// every two axes is in some row, every combination of the first full axes
// is a row, and so are the all-first (serial) and all-last (maximum)
// corners. It grows the array one axis at a time (Lei and Tai's
// in-parameter-order): each row takes the value that covers the most
// missing pairs, then rows are added, or their free entries filled, for
// the pairs still missing. The result is a function of its arguments.
func cover(sizes []int, full int) [][]int {
	rows := [][]int{{}}
	full = min(max(full, 1), len(sizes))
	for a := 0; a < full; a++ {
		var next [][]int
		for _, r := range rows {
			for v := 0; v < sizes[a]; v++ {
				next = append(next, append(slices.Clone(r), v))
			}
		}
		rows = next
	}
	for a := full; a < len(sizes); a++ {
		missing := map[[3]int]bool{}
		for b := 0; b < a; b++ {
			for vb := 0; vb < sizes[b]; vb++ {
				for va := 0; va < sizes[a]; va++ {
					missing[[3]int{b, vb, va}] = true
				}
			}
		}
		for i, r := range rows {
			best, most := 0, -1
			for va := 0; va < sizes[a]; va++ {
				n := 0
				for b := 0; b < a; b++ {
					if missing[[3]int{b, r[b], va}] {
						n++
					}
				}
				if n > most {
					best, most = va, n
				}
			}
			rows[i] = append(r, best)
			for b := 0; b < a; b++ {
				delete(missing, [3]int{b, r[b], best})
			}
		}
		for b := 0; b < a; b++ {
			for vb := 0; vb < sizes[b]; vb++ {
				for va := 0; va < sizes[a]; va++ {
					if !missing[[3]int{b, vb, va}] {
						continue
					}
					i := slices.IndexFunc(rows, func(r []int) bool { return r[a] == va && r[b] < 0 })
					if i < 0 {
						r := make([]int, a+1)
						for k := range r {
							r[k] = -1
						}
						r[a] = va
						rows, i = append(rows, r), len(rows)
					}
					rows[i][b] = vb
				}
			}
		}
	}
	for _, r := range rows {
		for i := range r {
			r[i] = max(r[i], 0)
		}
	}
	last := make([]int, len(sizes))
	for i, n := range sizes {
		last[i] = n - 1
	}
	for _, corner := range [][]int{make([]int, len(sizes)), last} {
		if !slices.ContainsFunc(rows, func(r []int) bool { return slices.Equal(r, corner) }) {
			rows = append(rows, corner)
		}
	}
	return rows
}

// stmt is one statement of a source.
type stmt struct {
	name string
	// sql is prepared by the service, through the view rewriter at cells
	// with views on, at every run.
	sql string
	// compile, when set, compiles the statement instead, once per catalog
	// and compile options.
	compile func(c *Compiler) (*Compiled, error)
}

// key identifies a statement: sources may list one more than once.
func (s stmt) key() string { return s.name + "\x00" + s.sql }

// sqlStmt is a statement a Compiler compiles from its text.
func sqlStmt(name, sql string) stmt {
	return stmt{name: name, sql: sql, compile: func(c *Compiler) (*Compiled, error) { return c.CompileSQL(sql) }}
}

// suiteStmts are the named workloads of the evaluation suite, all of it
// when names is empty, with their hints.
func suiteStmts(names ...string) []stmt {
	var out []stmt
	for _, w := range queries.Suite() {
		if len(names) == 0 || slices.Contains(names, w.Name) {
			out = append(out, stmt{name: w.Name, sql: w.SQL, compile: func(c *Compiler) (*Compiled, error) {
				w, _ := queries.ByName(w.Name) // planning writes into a query
				return c.CompileQuery(w.Query)
			}})
		}
	}
	return out
}

// source is a catalog and the statements a lattice runs over it.
type source struct {
	// build returns a new catalog, the same one every call.
	build func() *catalog.Catalog
	stmts []stmt
	// opts are every cell's options before the axes set theirs.
	opts Options
	// views are definitions each service creates, refreshed incrementally.
	views []string
}

// testSource runs statements over the unit-test catalog under
// DefaultOptions with 256-row morsels: several per pipeline at test scale.
func testSource(stmts ...stmt) source {
	opts := DefaultOptions()
	opts.MorselRows = 256
	return source{build: func() *catalog.Catalog { return datagen.Generate(datagen.Config{ScaleFactor: 0.05, Seed: 7}) }, stmts: stmts, opts: opts}
}

// lattice is one differential test: a source, the axes it varies, and
// how its runs are named, ordered and checked beyond the promise.
type lattice struct {
	src  source
	axes []axis
	// full is the number of leading axes whose every combination is a
	// cell; pairs suffice for the others.
	full int
	// spread runs statement i only at the cells of the i-th combination
	// of promise-axis values (modulo their count), at every value of the
	// other axes there: for sources of many random statements.
	spread bool
	// name is the subtest of a run ("" for the test itself); nil names it
	// after the statement. Consecutive runs of one name share a subtest.
	name func(st stmt, c cell) string
	// each makes a test's own assertions on every run.
	each func(t *testing.T, r latticeRun)
}

// latticeRun is one statement's run at one cell.
type latticeRun struct {
	st  stmt
	c   cell
	p   *Prepared
	res *Result
	svc *Service
	se  *Session // the session the cell's recycled runs share
}

// sizes are the lattice's value counts, axis by axis.
func (l *lattice) sizes() []int {
	sizes := make([]int, len(l.axes))
	for i, a := range l.axes {
		sizes[i] = len(a.vals)
	}
	return sizes
}

// cells returns the lattice's cells in covering-array order, the index of
// each cell's combination of promise-axis values (in order of first
// appearance), and the number of those combinations.
func (l *lattice) cells() ([]cell, []int, int) {
	var cells []cell
	var classes []int
	seen := map[string]int{}
	for _, row := range cover(l.sizes(), l.full) {
		c := cell{opts: l.src.opts}
		var promised []int
		for i, a := range l.axes {
			a.set(&c, a.vals[row[i]])
			if a.same {
				promised = append(promised, row[i])
			}
		}
		k := fmt.Sprint(promised)
		if _, ok := seen[k]; !ok {
			seen[k] = len(seen)
		}
		cells, classes = append(cells, c), append(classes, seen[k])
	}
	return cells, classes, len(seen)
}

// job is one statement to run at one cell.
type job struct {
	st int
	c  cell
}

// run checks the lattice and returns its harness. Statements run one
// after another, each at its cells in covering-array order; a lattice of
// recycled cells runs cell after cell instead, so its one session runs
// every statement in turn at each.
func (l *lattice) run(t *testing.T) *harness {
	t.Helper()
	cells, classes, n := l.cells()
	var jobs []job
	for i, c := range cells {
		for s := range l.src.stmts {
			if !l.spread || s%n == classes[i] {
				jobs = append(jobs, job{s, c})
			}
		}
	}
	if !slices.ContainsFunc(cells, func(c cell) bool { return c.recycled }) {
		slices.SortStableFunc(jobs, func(a, b job) int { return a.st - b.st })
	}
	h := &harness{l: l, jobs: jobs, cats: map[[2]bool]*variant{}, want: map[string][][]int64{}, loads: map[string]uint64{}, seen: map[string]digest{}}
	for len(jobs) > 0 {
		name := l.nameOf(jobs[0])
		n := 1
		for n < len(jobs) && l.nameOf(jobs[n]) == name {
			n++
		}
		group := func(t *testing.T) {
			for _, j := range jobs[:n] {
				h.check(t, j)
			}
		}
		if name == "" {
			group(t)
		} else {
			t.Run(name, group)
		}
		jobs = jobs[n:]
	}
	return h
}

// noSubtest runs every run in the test itself.
func noSubtest(stmt, cell) string { return "" }

// byKnobs names a run's subtest by its statement and its Workers, morsel
// and Shards values.
func byKnobs(st stmt, c cell) string {
	return fmt.Sprintf("%s/workers=%d/morsel=%d/shards=%d", st.name, c.opts.Workers, c.opts.MorselRows, c.opts.Shards)
}

func (l *lattice) nameOf(j job) string {
	if l.name == nil {
		return l.src.stmts[j.st].name
	}
	return l.name(l.src.stmts[j.st], j.c)
}

// harness is the state of one lattice run.
type harness struct {
	l     *lattice
	jobs  []job
	cats  map[[2]bool]*variant // by (incremental, pinned)
	want  map[string][][]int64 // reference rows by statement key
	loads map[string]uint64    // one-core loads by statement key
	seen  map[string]digest    // first run of each promise class
}

// variant is one catalog the source was built into: its services, one
// per compile options, and their compiled statements.
type variant struct {
	cat  *catalog.Catalog
	svcs map[uint64]*latticeService
	snap *catalog.Snapshot // pinned: the epoch the runs bind
}

type latticeService struct {
	svc  *Service
	se   *Session
	prep map[string]*Prepared // compiled statements by key
}

// catalog returns the source built bulk-loaded or grown by appends; for
// pinned cells it grows on by one batch per table after the statements
// were compiled and a snapshot taken.
func (h *harness) catalog(t *testing.T, incremental, pinned bool) *variant {
	t.Helper()
	k := [2]bool{incremental, pinned}
	if v := h.cats[k]; v != nil {
		return v
	}
	cat := h.l.src.build()
	tables := cat.Names()
	var tail map[string][][]int64
	if incremental {
		tail = cut(t, cat)
	}
	v := &variant{cat: cat, svcs: map[uint64]*latticeService{}}
	h.cats[k] = v
	var mine []job
	for _, j := range h.jobs {
		if j.c.incremental == incremental && j.c.pinned == pinned {
			mine = append(mine, j)
			h.service(t, v, j.c) // views see the appends
		}
	}
	appendBack(t, cat, tail)
	if pinned {
		for _, j := range mine {
			h.prepare(t, v, j.st, j.c)
		}
		v.snap = cat.Snapshot()
		for _, name := range tables {
			tb, err := cat.Table(name)
			if err != nil {
				t.Fatal(err)
			}
			if n := min(64, tb.RowCap()-tb.Rows()); n > 0 {
				if _, err := cat.AppendCols(name, datagen.AppendBatch(tb, n, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return v
}

// cut shortens every table of cat it can to a prefix in the same capacity
// class and returns the rows it cut: appended back, they grow the same
// rows the way streaming ingest grows them. It fails unless it cut a
// table, since a grown catalog would otherwise be the bulk-loaded one.
func cut(t testing.TB, cat *catalog.Catalog) map[string][][]int64 {
	t.Helper()
	tail := map[string][][]int64{}
	for _, name := range cat.Names() {
		tb, _ := cat.Table(name)
		n := tb.Rows()
		n0 := n - min(200, n/2)
		if n0 == n || catalog.CapRowsFor(n0) != catalog.CapRowsFor(n) {
			continue
		}
		for _, c := range tb.Cols {
			tail[name] = append(tail[name], slices.Clone(c.Data[n0:]))
			c.Data = c.Data[:n0]
		}
	}
	if len(tail) == 0 {
		t.Fatal("no table can be cut back within its capacity class")
	}
	return tail
}

// appendBack appends the rows cut from each table of cat in batches of 80.
func appendBack(t testing.TB, cat *catalog.Catalog, tail map[string][][]int64) {
	t.Helper()
	for _, name := range cat.Names() {
		cols := tail[name]
		for lo := 0; len(cols) > 0 && lo < len(cols[0]); lo += 80 {
			batch := make([][]int64, len(cols))
			for i, col := range cols {
				batch[i] = col[lo:min(lo+80, len(col))]
			}
			if _, err := cat.AppendCols(name, batch); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// service returns the service of a cell's compile options on catalog v,
// with the source's views.
func (h *harness) service(t *testing.T, v *variant, c cell) *latticeService {
	t.Helper()
	opts := c.compileOptions()
	d := opts.Digest()
	if s := v.svcs[d]; s != nil {
		return s
	}
	svc := NewService(v.cat, opts, 0)
	for i, def := range h.l.src.views {
		if _, err := svc.CreateView(fmt.Sprintf("lattice_v%d_%x", i, d), def, mview.RefreshIncremental); err != nil {
			t.Fatal(err)
		}
	}
	s := &latticeService{svc: svc, se: svc.NewSession(), prep: map[string]*Prepared{}}
	v.svcs[d] = s
	return s
}

// prepare returns statement s prepared for cell c on catalog v: compiled
// once, or prepared by the service at every call.
func (h *harness) prepare(t *testing.T, v *variant, s int, c cell) *Prepared {
	t.Helper()
	st := h.l.src.stmts[s]
	ls := h.service(t, v, c)
	if st.compile == nil {
		p, err := ls.svc.prepare(st.sql, c.views)
		if err != nil {
			t.Fatalf("%s: prepare: %v", st.name, err)
		}
		return p
	}
	if p := ls.prep[st.key()]; p != nil {
		return p
	}
	cq, err := st.compile(NewCompiler(v.cat, ls.svc.opts))
	if err != nil {
		t.Fatalf("%s: compile: %v", st.name, err)
	}
	ls.prep[st.key()] = &Prepared{Compiled: cq}
	return ls.prep[st.key()]
}

// reference returns the reference executor's rows for a prepared
// statement, with its bound parameters, and whether their order is part of
// the answer.
func reference(t testing.TB, p *Prepared) ([][]int64, bool) {
	t.Helper()
	var params []int64
	if p.State != nil {
		params = p.State.Params
	}
	want, err := ref.ExecuteWith(p.Compiled.Plan, params)
	if err != nil {
		t.Fatalf("reference executor: %v", err)
	}
	return want, len(p.Compiled.Plan.OrderBy) > 0
}

// matchesReference fails unless rows are the reference executor's for p.
func matchesReference(t *testing.T, rows [][]int64, p *Prepared) {
	t.Helper()
	want, ordered := reference(t, p)
	rowsEqual(t, rows, want, ordered)
}

// config returns the sampling of an event for statement s. A mem-loads
// countdown restarts with every morsel, so its period is a share of the
// statement's own loads, never longer than 487.
func (h *harness) config(t *testing.T, s, event int) *pmu.Config {
	t.Helper()
	switch event {
	case evInstRetired:
		return &pmu.Config{Event: vm.EvInstRetired, Period: 487}
	case evMemLoads:
		k := h.l.src.stmts[s].key()
		if _, ok := h.loads[k]; !ok {
			p := h.prepare(t, h.catalog(t, false, false), s, cell{opts: h.l.src.opts})
			res, err := (&executor{}).run(p.Compiled, p.State, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			h.loads[k] = res.Stats.Loads
		}
		return &pmu.Config{Event: vm.EvMemLoads, Period: min(487, max(1, int64(h.loads[k]/256)))}
	case evMergeRegs:
		return &pmu.Config{Event: vm.EvInstRetired, Period: 97, Format: pmu.FormatIPTimeRegs}
	case evPGO:
		return pgoSampling()
	}
	return nil
}

// pgoSampling is the PGO sampling (cycles, timestamps and registers) at a
// shorter period.
func pgoSampling() *pmu.Config {
	c := DefaultAdaptSampling()
	c.Period = 1500
	return &c
}

// check runs one job and holds it to the lattice's promise.
func (h *harness) check(t *testing.T, j job) {
	t.Helper()
	st, c := h.l.src.stmts[j.st], j.c
	label := fmt.Sprintf("%s at %v", st.name, c)
	v := h.catalog(t, c.incremental, c.pinned)
	ls := h.service(t, v, c)
	p := h.prepare(t, v, j.st, c)
	se := ls.se
	se.exec.Opts, se.snap = c.opts, v.snap
	run := runFresh
	if c.recycled {
		run = runRecycled
	}
	res, err := run(se, p, h.config(t, j.st, c.event))
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	k := st.key()
	if _, ok := h.want[k]; !ok {
		base := cell{opts: h.l.src.opts}
		h.want[k], _ = reference(t, h.prepare(t, h.catalog(t, false, false), j.st, base))
	}
	if want := h.want[k]; !ref.SameRows(res.Rows, want, len(p.Compiled.Plan.OrderBy) > 0) {
		t.Fatalf("%s: %d rows differ from the reference executor's %d:\n got %v\nwant %v",
			label, len(res.Rows), len(want), res.Rows[:min(len(res.Rows), 8)], want[:min(len(want), 8)])
	}
	if c.opts.Workers > 0 && res.Workers != c.opts.Workers || res.Shards != max(c.opts.Shards, 0) {
		t.Fatalf("%s: ran on %d workers and %d shards", label, res.Workers, res.Shards)
	}
	if p.Rewrite != nil {
		checkRewrite(t, label, ls.svc, p, res)
	}
	h.promise(t, j, label, p, res)
	if h.l.each != nil {
		h.l.each(t, latticeRun{st: st, c: c, p: p, res: res, svc: ls.svc, se: se})
	}
}

// runFresh runs p as Engine.Run does, on machines built for this run
// alone, under se's run options and snapshot (and its view guard).
func runFresh(se *Session, p *Prepared, cfg *pmu.Config) (*Result, error) {
	bound, rs, err := se.bind(p)
	if err != nil {
		return nil, err
	}
	return (&executor{Opts: se.exec.Opts}).run(bound.Compiled, rs, 1, cfg)
}

// runRecycled runs p on se's machines, whatever they ran before, and
// fails unless the run is the one new machines make: rows, statistics,
// both clocks, samples, canonical profile, tuple counts and every byte of
// the heap.
func runRecycled(se *Session, p *Prepared, cfg *pmu.Config) (*Result, error) {
	want, err := runFresh(se, p, cfg)
	if err != nil {
		return nil, fmt.Errorf("fresh run: %w", err)
	}
	got, err := se.Run(p, cfg)
	switch {
	case err != nil:
		return nil, err
	case !reflect.DeepEqual(got.Rows, want.Rows):
		err = fmt.Errorf("rows differ (%d vs %d)", len(got.Rows), len(want.Rows))
	case got.Stats != want.Stats:
		err = fmt.Errorf("stats differ:\n got %+v\nwant %+v", got.Stats, want.Stats)
	case got.WallCycles != want.WallCycles || got.MergeCycles != want.MergeCycles:
		err = fmt.Errorf("clocks differ: wall %d vs %d, merge %d vs %d", got.WallCycles, want.WallCycles, got.MergeCycles, want.MergeCycles)
	case !reflect.DeepEqual(got.Samples, want.Samples):
		err = fmt.Errorf("sample streams differ (%d vs %d samples)", len(got.Samples), len(want.Samples))
	case (got.Profile == nil) != (want.Profile == nil):
		err = errors.New("one run has a profile, the other has none")
	case got.Profile != nil && !bytes.Equal(got.Profile.Canonical(), want.Profile.Canonical()):
		err = errors.New("canonical profiles differ")
	case !reflect.DeepEqual(got.TupleCounts, want.TupleCounts):
		err = fmt.Errorf("tuple counts differ:\n got %v\nwant %v", got.TupleCounts, want.TupleCounts)
	case got.CPU == want.CPU:
		err = errors.New("the two results share a machine")
	case !bytes.Equal(got.CPU.Heap, want.CPU.Heap):
		err = fmt.Errorf("heaps differ (%d vs %d bytes)", len(got.CPU.Heap), len(want.CPU.Heap))
	}
	if err != nil {
		return nil, fmt.Errorf("the session's run differs from a run on new machines: %w", err)
	}
	return got, nil
}

// digest is what the runs of one promise class share.
type digest struct {
	label string
	rows  string
	heap  [32]byte
	canon []byte
}

// promise compares a run with the first run of its class: the statement's
// runs whose cells agree on every axis that promises nothing, on the path
// (one-core or morsel-driven) and on whether zones were pruned. Their
// rows, in order, heaps and canonical profiles must be identical. Across
// the two paths the hash tables must be: each cursor, directory and arena.
func (h *harness) promise(t *testing.T, j job, label string, p *Prepared, res *Result) {
	t.Helper()
	class := j.c
	for _, a := range h.l.axes {
		if a.same {
			a.set(&class, a.vals[0])
		}
	}
	key := fmt.Sprint(h.l.src.stmts[j.st].key(), class, j.c.opts.ShardPruning && j.c.opts.Shards > 0)
	whole := digest{label: label, rows: fmt.Sprint(res.Rows), heap: sha256.Sum256(res.CPU.Heap)}
	if res.Profile != nil && j.c.event != evPGO { // a count event's
		whole.canon = res.Profile.Canonical()
	}
	var hts []byte
	for _, ht := range hashTables(p.Compiled) {
		heap := res.CPU.Heap
		cursor := ht.Desc + codegen.HTDescCursor
		hts = append(hts, heap[cursor:cursor+8]...)
		hts = append(hts, heap[ht.Dir:ht.Dir+ht.DirSlots*8]...)
		hts = append(hts, heap[ht.Arena:codegen.HeapI64(heap, cursor)]...)
	}
	tables := digest{label: label, rows: whole.rows, heap: sha256.Sum256(hts)}
	for _, c := range []struct {
		key string
		d   digest
	}{{fmt.Sprint(key, j.c.serial()), whole}, {key, tables}} {
		first, ok := h.seen[c.key]
		switch {
		case !ok:
			h.seen[c.key] = c.d
		case c.d.rows != first.rows:
			t.Errorf("%s: rows (in order) differ from %s", label, first.label)
		case c.d.heap != first.heap:
			t.Errorf("%s: heap differs from %s", label, first.label)
		case !bytes.Equal(c.d.canon, first.canon):
			t.Errorf("%s: canonical profile differs from %s", label, first.label)
		}
	}
}

// checkRewrite holds a view-served run to its base statement: the
// rewritten text, read back, lands on the fingerprint that was compiled
// (the rewriter never printed it for the parser), and the column headers
// are the base statement's.
func checkRewrite(t *testing.T, label string, svc *Service, p *Prepared, res *Result) {
	t.Helper()
	text, err := sqlparse.Normalize(p.Rewrite.SQL)
	if err != nil {
		t.Fatalf("%s: the rewrite does not normalize: %v\n  %s", label, err, p.Rewrite.SQL)
	}
	if text.Canon != p.fp.Canon || text.Hash != p.fp.Hash || !reflect.DeepEqual(text.Args, p.fp.Args) {
		t.Fatalf("%s: Normalize(%q) = %q %v, served %q %v", label, p.Rewrite.SQL, text.Canon, text.Args, p.fp.Canon, p.fp.Args)
	}
	base, err := svc.prepare(p.Rewrite.Orig, false)
	if err != nil {
		t.Fatalf("%s: the base statement: %v", label, err)
	}
	cols := base.Compiled.Plan.Out()
	if len(res.Cols) != len(cols) {
		t.Fatalf("%s: %d columns, the base statement has %d", label, len(res.Cols), len(cols))
	}
	for i, c := range cols {
		if res.Cols[i].Name != c.Name {
			t.Fatalf("%s: column %d is %q, the base statement's %q", label, i, res.Cols[i].Name, c.Name)
		}
	}
}

// runOnce compiles q under opts and runs it on new machines.
func runOnce(t testing.TB, cat *catalog.Catalog, q *plan.Query, opts Options, cfg *pmu.Config) (*Compiled, *Result) {
	t.Helper()
	e := New(cat, opts)
	cq, err := e.CompileQuery(q)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := e.Run(cq, cfg)
	if err != nil {
		t.Fatalf("workers=%d shards=%d: %v", opts.Workers, opts.Shards, err)
	}
	return cq, res
}

// knobs returns DefaultOptions with run knobs set.
func knobs(workers, morsel, shards int, pruning bool) Options {
	o := DefaultOptions()
	o.Workers, o.MorselRows, o.Shards, o.ShardPruning = workers, morsel, shards, pruning
	return o
}

// lattices are every differential test of the package.
func lattices() []*lattice {
	return []*lattice{
		shardDeterminism(), shardMatchesUnsharded(), shardPruningProperty(), groupBoundSafe(), sharedAggState(),
		parallelMatchesReference(), parallelSampleDeterminism(), mergeDeterminism(), mergeZeroPartitions(),
		epochDeterminismBattery(), widthBoundaries(), widthBulkEqualsIncremental(), recycledRunsMatchFresh(),
		parallelStagingCarriesNothing(), mviewRewriteSoundness(), suiteMatchesReference(), suiteOptimizations(),
		serviceCacheHit(), edgeShapes(), {axes: replanAxes()},
	}
}

// TestLatticeCovers holds the covering-array generator to its contract
// for every axis set a lattice of the package uses: every value pair of
// every two axes meets in some row, every combination of the leading full
// axes is a row, both corners are rows, and the rows are a function of
// the axes.
func TestLatticeCovers(t *testing.T) {
	for _, l := range lattices() {
		sizes := l.sizes()
		rows := cover(sizes, l.full)
		if !reflect.DeepEqual(rows, cover(sizes, l.full)) {
			t.Errorf("%v: two generations differ", sizes)
		}
		if gap := coverGap(rows, sizes, l.full); gap != "" {
			t.Errorf("%v, full %d: %s", sizes, l.full, gap)
		}
		// Without the rows that pair the first two axes' serial values,
		// the check must see the gap.
		if len(sizes) > 1 {
			dropped := slices.DeleteFunc(slices.Clone(rows), func(r []int) bool { return r[0] == 0 && r[1] == 0 })
			if coverGap(dropped, sizes, l.full) == "" {
				t.Errorf("%v: a dropped pair goes unseen", sizes)
			}
		}
	}
}

// coverGap names a value pair, leading combination or corner that no row
// of rows has ("" when there is none).
func coverGap(rows [][]int, sizes []int, full int) string {
	has := func(want map[int]int) bool {
		return slices.ContainsFunc(rows, func(r []int) bool {
			for a, v := range want {
				if r[a] != v {
					return false
				}
			}
			return true
		})
	}
	want := []map[int]int{{}, {}}
	for a, n := range sizes {
		want[0][a], want[1][a] = 0, n-1
	}
	for a := range sizes {
		for b := a + 1; b < len(sizes); b++ {
			for va := 0; va < sizes[a]; va++ {
				for vb := 0; vb < sizes[b]; vb++ {
					want = append(want, map[int]int{a: va, b: vb})
				}
			}
		}
	}
	lead := []map[int]int{{}}
	for a := 0; a < min(full, len(sizes)); a++ {
		var next []map[int]int
		for _, m := range lead {
			for v := 0; v < sizes[a]; v++ {
				next = append(next, maps.Clone(m))
				next[len(next)-1][a] = v
			}
		}
		lead = next
	}
	for _, w := range append(want, lead...) {
		if !has(w) {
			return fmt.Sprintf("no row has axis values %v", w)
		}
	}
	return ""
}
