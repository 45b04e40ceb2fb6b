package mview

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// RefreshPolicy decides how a view tracks base-table appends.
type RefreshPolicy uint8

const (
	// RefreshIncremental re-aggregates the append delta and appends the
	// resulting partial rows at rewrite time: the view is always brought
	// up to the catalog's current prefix before a rewrite is served.
	RefreshIncremental RefreshPolicy = iota
	// RefreshLazy leaves a stale view alone: rewrites are suppressed
	// until an explicit Refresh call catches it up.
	RefreshLazy
)

// String names the policy for \views listings and reports.
func (p RefreshPolicy) String() string {
	if p == RefreshLazy {
		return "lazy"
	}
	return "incremental"
}

// maxRefreshStates bounds the per-view consistency ledger. Snapshots
// older than the retained window fall back to base-table execution —
// a performance regression, never a correctness one.
const maxRefreshStates = 64

// RefreshState pairs a base-table prefix with the view prefix that
// aggregates exactly those rows. A snapshot may serve the view iff its
// (base rows, view rows) pair appears in this ledger — that equality is
// the zero-stale-read guarantee, checked per execution.
type RefreshState struct {
	Covered  int64  // base rows folded into the view
	ViewRows int64  // view partial rows at that coverage
	Epoch    uint64 // catalog epoch when the state was recorded
}

// View is one registered materialized view.
type View struct {
	Name      string
	TableName string // in-catalog partial-aggregate table
	DefSQL    string // normalized definition text
	Policy    RefreshPolicy
	// BuildEpoch is the catalog epoch at the initial build.
	BuildEpoch uint64

	def    *Summary  // definition digest (matching side)
	aggs   []AggTerm // stored aggregates: deduped def aggs + count(*)
	cntIdx int       // index in aggs of the count(*) partial
	table  *catalog.Table
	states []RefreshState
	hits   uint64 // rewrites served (under the manager lock)
}

// Def returns the view's definition digest.
func (v *View) Def() *Summary { return v.def }

// StoredAggs returns the stored aggregate terms; column i of the view
// table past the group keys is named aggCol(i) and holds partials of
// StoredAggs()[i].
func (v *View) StoredAggs() []AggTerm { return v.aggs }

// States returns a copy of the refresh ledger, oldest first.
func (v *View) States() []RefreshState {
	return append([]RefreshState(nil), v.states...)
}

// aggCol names the view table's i-th aggregate column.
func aggCol(i int) string { return fmt.Sprintf("agg%d", i) }

// Info is one row of the \views listing.
type Info struct {
	Name       string
	Table      string // backing table name
	Base       string // base table name
	Policy     RefreshPolicy
	Hits       uint64
	BuildEpoch uint64
	LastEpoch  uint64
	Covered    int64 // base rows folded in
	BaseRows   int64 // base rows now visible
	ViewRows   int64
	Bytes      int64 // backing storage for the visible partial rows
}

// Stale reports whether the base table has grown past the view's
// coverage.
func (i Info) Stale() bool { return i.BaseRows > i.Covered }

// Manager owns a catalog's materialized views: creation, refresh,
// subsumption rewriting, and the consistency ledger executions check
// snapshots against. One Manager serves one engine Service; all methods
// are safe for concurrent use.
type Manager struct {
	cat *catalog.Catalog

	mu    sync.Mutex
	views map[string]*View
	order []string // registration order — rewrite candidates scan in it

	// nviews mirrors len(views) for the lock-free fast path: with no
	// views registered, Rewrite is one atomic load — the "0% rewrite
	// tax" contract for services that never create a view.
	nviews atomic.Int32

	// gen is the view-generation counter in the qcache key contract:
	// bumped on Create and Drop (the rewrite decision space changed),
	// NOT on refresh (refreshes append rows; compiled artifacts remain
	// valid and snapshot pairing handles freshness).
	gen atomic.Uint64

	// costGate caches the plan-cost verdict per (query canon, view):
	// true = the rewritten plan is cheaper, serve it. Verdicts are
	// priced from catalog cardinalities, so costVer/costEpoch record
	// the catalog version and epoch they were computed under; movement
	// of either clears the cache. costFn prices a plan (SetCostModel;
	// the engine installs cost.Annotate).
	costGate  map[[2]uint64]bool
	costVer   uint64
	costEpoch uint64
	costFn    CostModel

	fallbacks uint64 // consistency-guard fallbacks served
}

// NewManager returns a view manager over cat with no views.
func NewManager(cat *catalog.Catalog) *Manager {
	return &Manager{
		cat:      cat,
		views:    map[string]*View{},
		costGate: map[[2]uint64]bool{},
	}
}

// Generation is the view-generation component of the qcache key: it
// changes exactly when the set of registered views changes.
func (m *Manager) Generation() uint64 { return m.gen.Load() }

// Len returns the number of registered views.
func (m *Manager) Len() int { return int(m.nviews.Load()) }

// Fallbacks counts executions that matched a view at prepare time but
// fell back to base-table execution because the bound snapshot had no
// consistent view prefix.
func (m *Manager) Fallbacks() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fallbacks
}

// Names returns the registered view names in registration order.
func (m *Manager) Names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.order...)
}

// Get returns a registered view by name.
func (m *Manager) Get(name string) (*View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	return v, ok
}

// List describes every view for the \views meta-command and reports.
func (m *Manager) List() []Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := m.cat.Snapshot()
	out := make([]Info, 0, len(m.order))
	for _, name := range m.order {
		v := m.views[name]
		last := v.states[len(v.states)-1]
		info := Info{
			Name: v.Name, Table: v.TableName, Base: v.def.Table,
			Policy: v.Policy, Hits: v.hits, BuildEpoch: v.BuildEpoch,
			LastEpoch: last.Epoch, Covered: last.Covered, ViewRows: last.ViewRows,
		}
		if bv := snap.View(v.def.Table); bv != nil {
			info.BaseRows = int64(bv.Rows)
		}
		if mv := snap.View(v.TableName); mv != nil {
			info.Bytes = int64(mv.Rows) * int64(len(v.table.Cols)) * 8
		}
		out = append(out, info)
	}
	return out
}

// Create registers a materialized view named name over the single-table
// aggregate statement defSQL, builds its partial-aggregate table over
// the base table's current prefix, and adds it to the catalog as
// "__mv_"+name. The definition must be summarizable (see Summarize) and
// must not carry ORDER BY or LIMIT — a view is a set of partials.
func (m *Manager) Create(name, defSQL string, policy RefreshPolicy) (*View, error) {
	fp, err := sqlparse.Normalize(defSQL)
	if err != nil {
		return nil, fmt.Errorf("mview: %w", err)
	}
	def, ok := Summarize(fp, m.cat)
	if !ok {
		return nil, fmt.Errorf("mview: definition is not a summarizable single-table aggregate: %s", defSQL)
	}
	if len(def.OrderBy) > 0 || def.Limit >= 0 {
		return nil, fmt.Errorf("mview: view definitions cannot carry ORDER BY or LIMIT")
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.views[name]; dup {
		return nil, fmt.Errorf("mview: view %q already exists", name)
	}
	v := &View{
		Name:      name,
		TableName: "__mv_" + name,
		DefSQL:    fp.Canon,
		Policy:    policy,
		def:       def,
	}
	// Stored aggregates: the definition's, plus an implicit count(*)
	// partial. The count both answers COUNT queries the definition did
	// not anticipate and is the derivability witness for SUM rollups.
	v.aggs = append(v.aggs, def.Aggs...)
	v.cntIdx = -1
	for i, a := range v.aggs {
		if a.Fn == plan.AggCount {
			v.cntIdx = i
		}
	}
	if v.cntIdx < 0 {
		v.cntIdx = len(v.aggs)
		v.aggs = append(v.aggs, AggTerm{Fn: plan.AggCount, Key: "count(*)"})
	}

	snap := m.cat.Snapshot()
	bv := snap.View(def.Table)
	if bv == nil {
		return nil, fmt.Errorf("mview: base table %q not in catalog snapshot", def.Table)
	}
	base, err := m.cat.Table(def.Table)
	if err != nil {
		return nil, fmt.Errorf("mview: %w", err)
	}

	cols, groups := v.ComputePartials(bv, 0, int64(bv.Rows))
	t := catalog.NewTable(v.TableName)
	for ki, key := range def.Keys {
		bc := base.Col(key)
		col := t.AddCol(key, bc.Type)
		col.Dict = bc.Dict // share the dictionary: codes stay comparable
		col.Data = cols[ki]
	}
	for ai, a := range v.aggs {
		typ, dict := aggColType(a, base)
		col := t.AddCol(aggCol(ai), typ)
		col.Dict = dict
		col.Data = cols[len(def.Keys)+ai]
	}
	v.table = t
	m.cat.Add(t)

	after := m.cat.Snapshot()
	v.BuildEpoch = after.Epoch
	v.states = []RefreshState{{Covered: int64(bv.Rows), ViewRows: groups, Epoch: after.Epoch}}

	m.views[name] = v
	m.order = append(m.order, name)
	m.nviews.Store(int32(len(m.views)))
	m.gen.Add(1)
	return v, nil
}

// aggColType picks a view column's type: min/max of a bare column keep
// the column's type and dictionary (the partial is one of its values);
// everything else (sums, counts, arithmetic) is plain TInt.
func aggColType(a AggTerm, base *catalog.Table) (catalog.Type, *catalog.Dict) {
	if a.Fn == plan.AggMin || a.Fn == plan.AggMax {
		if cr, ok := a.Arg.(*plan.ColRef); ok {
			if bc := base.Col(cr.Name); bc != nil {
				return bc.Type, bc.Dict
			}
		}
	}
	return catalog.TInt, nil
}

// Drop unregisters a view and removes its backing table from the
// catalog. The epoch journal keeps the table's append lineage (it is
// history, not state).
func (m *Manager) Drop(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return fmt.Errorf("mview: unknown view %q", name)
	}
	delete(m.views, name)
	for i, n := range m.order {
		if n == name {
			m.order = append(m.order[:i], m.order[i+1:]...)
			break
		}
	}
	m.cat.Remove(v.TableName)
	m.nviews.Store(int32(len(m.views)))
	m.gen.Add(1)
	// Rewrite verdicts involving this view are dead; drop them all
	// (cheap, and Create of a same-named view must not inherit them).
	m.costGate = map[[2]uint64]bool{}
	return nil
}

// Refresh catches a view up to the base table's current prefix by
// re-aggregating the append delta into new partial rows (append-only:
// existing partials are never touched, so every previously recorded
// (base, view) pairing stays valid for older snapshots).
func (m *Manager) Refresh(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[name]
	if !ok {
		return fmt.Errorf("mview: unknown view %q", name)
	}
	return m.refreshLocked(v)
}

func (m *Manager) refreshLocked(v *View) error {
	snap := m.cat.Snapshot()
	bv := snap.View(v.def.Table)
	if bv == nil {
		return fmt.Errorf("mview: base table %q vanished", v.def.Table)
	}
	last := v.states[len(v.states)-1]
	baseRows := int64(bv.Rows)
	if baseRows <= last.Covered {
		return nil // nothing new
	}
	cols, groups := v.ComputePartials(bv, last.Covered, baseRows)
	viewRows := last.ViewRows
	if groups > 0 {
		res, err := m.cat.AppendCols(v.TableName, cols)
		if err != nil {
			return fmt.Errorf("mview: refresh %s: %w", v.Name, err)
		}
		viewRows = res.Hi
	}
	st := RefreshState{Covered: baseRows, ViewRows: viewRows, Epoch: m.cat.Epoch()}
	v.states = append(v.states, st)
	if len(v.states) > maxRefreshStates {
		v.states = v.states[len(v.states)-maxRefreshStates:]
	}
	return nil
}

// ComputePartials aggregates the base window [lo, hi) under the view's
// definition predicate into partial rows, one per group, sorted by the
// group-key tuple. It returns the view table's columns (keys then
// aggregate partials) and the number of groups. This is the build,
// refresh, AND verification path: verify.CheckViews replays the same
// windows and demands byte equality.
func (v *View) ComputePartials(bv *catalog.TableView, lo, hi int64) ([][]int64, int64) {
	def := v.def
	colData := map[string][]int64{}
	need := map[string]bool{}
	for c := range def.Preds {
		need[c] = true
	}
	for _, k := range def.Keys {
		need[k] = true
	}
	for _, a := range v.aggs {
		if a.Arg != nil {
			collectCols(a.Arg, need)
		}
	}
	for c := range need {
		colData[c] = bv.ColByName(c)
	}

	type groupAcc struct {
		keys []int64
		acc  []int64
		n    int64
	}
	groups := map[string]*groupAcc{}
	var order []string
	keybuf := make([]byte, 0, 8*len(def.Keys))
	for r := lo; r < hi; r++ {
		row := int(r)
		match := true
		for c, iv := range def.Preds {
			val := colData[c][row]
			if val < iv.Lo || val > iv.Hi {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		keybuf = keybuf[:0]
		for _, k := range def.Keys {
			val := colData[k][row]
			for s := 0; s < 64; s += 8 {
				keybuf = append(keybuf, byte(val>>s))
			}
		}
		gk := string(keybuf)
		g, ok := groups[gk]
		if !ok {
			g = &groupAcc{keys: make([]int64, len(def.Keys)), acc: make([]int64, len(v.aggs))}
			for ki, k := range def.Keys {
				g.keys[ki] = colData[k][row]
			}
			groups[gk] = g
			order = append(order, gk)
		}
		g.n++
		for ai, a := range v.aggs {
			switch a.Fn {
			case plan.AggSum:
				g.acc[ai] += evalExpr(a.Arg, colData, row)
			case plan.AggCount:
				g.acc[ai]++
			case plan.AggMin:
				val := evalExpr(a.Arg, colData, row)
				if g.n == 1 || val < g.acc[ai] {
					g.acc[ai] = val
				}
			case plan.AggMax:
				val := evalExpr(a.Arg, colData, row)
				if g.n == 1 || val > g.acc[ai] {
					g.acc[ai] = val
				}
			}
		}
	}

	// Deterministic emission: sort groups by key tuple so rebuilds and
	// verification replays are byte-stable.
	sort.Slice(order, func(i, j int) bool {
		a, b := groups[order[i]], groups[order[j]]
		for k := range a.keys {
			if a.keys[k] != b.keys[k] {
				return a.keys[k] < b.keys[k]
			}
		}
		return false
	})

	ncols := len(def.Keys) + len(v.aggs)
	cols := make([][]int64, ncols)
	for i := range cols {
		cols[i] = make([]int64, 0, len(order))
	}
	for _, gk := range order {
		g := groups[gk]
		for ki := range def.Keys {
			cols[ki] = append(cols[ki], g.keys[ki])
		}
		for ai := range v.aggs {
			cols[len(def.Keys)+ai] = append(cols[len(def.Keys)+ai], g.acc[ai])
		}
	}
	return cols, int64(len(order))
}

// collectCols gathers the column names an expression reads.
func collectCols(e plan.Expr, into map[string]bool) {
	switch x := e.(type) {
	case *plan.ColRef:
		into[x.Name] = true
	case *plan.Bin:
		collectCols(x.L, into)
		collectCols(x.R, into)
	}
}

// ConsistentUnder reports whether snap may serve viewName: the
// snapshot's visible base rows and view rows must pair up in the view's
// refresh ledger. This is the execution-time zero-stale-read guard —
// a refreshed view can never serve rows a snapshot should not see,
// because the pairing demands exact prefix agreement on both sides.
func (m *Manager) ConsistentUnder(snap *catalog.Snapshot, viewName string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	v, ok := m.views[viewName]
	if !ok {
		return false
	}
	bv := snap.View(v.def.Table)
	mv := snap.View(v.TableName)
	if bv == nil || mv == nil {
		return false
	}
	for i := len(v.states) - 1; i >= 0; i-- {
		st := v.states[i]
		if st.Covered == int64(bv.Rows) && st.ViewRows == int64(mv.Rows) {
			return true
		}
	}
	return false
}

// NoteFallback counts a consistency-guard fallback (engine-reported).
func (m *Manager) NoteFallback() {
	m.mu.Lock()
	m.fallbacks++
	m.mu.Unlock()
}
