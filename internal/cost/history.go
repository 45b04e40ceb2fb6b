// Package cost is the profile-fed cost layer over the planner: a cycle
// cost model annotating every plan node (Annotate), pluggable cardinality
// estimators for the planner's Estimator hook (Naive over a statistics
// source, HistoryCorrected over any base), an execution-side collector
// that reads true per-operator row counts out of the attributed tuple
// counters (TrueRows), and the observed-cardinality history cache that
// closes the loop (History): Session.Adapt feeds true counts in, the next
// compile plans against them.
package cost

import (
	"container/list"
	"sync"

	"repro/internal/sqlparse"
)

// materialDelta is the relative change in an entry's corrected rows that
// counts as "material": only material changes bump the history version,
// and only version changes are worth a cache-generation invalidation.
const materialDelta = 0.2

// ewmaAlpha weights the newest observation in the exponential moving
// average. 0.5 follows new workload shifts quickly while smoothing noise
// from partial runs.
const ewmaAlpha = 0.5

// DefaultHistoryCap bounds the history under churning workloads: a
// service that sees millions of distinct plan expressions (e.g. ad-hoc
// dashboards) keeps only the most recently touched ones. 4096 entries is
// ~100KB and far above any steady-state working set in the suite.
const DefaultHistoryCap = 4096

// histEntry is one LRU-tracked observation.
type histEntry struct {
	fp   uint64
	rows float64
}

// History is the observed-cardinality cache: canonical plan-expression
// fingerprint (plan.Canon hashed with sqlparse.Hash64) → exponentially
// smoothed true output rows, capacity-capped with LRU eviction (both
// Observe and Lookup refresh recency). It is shared by every session of
// a service and is safe for concurrent Observe/Lookup.
type History struct {
	mu      sync.Mutex
	m       map[uint64]*list.Element // fp → element holding *histEntry
	lru     *list.List               // front = most recently touched
	cap     int
	version uint64
}

// NewHistory returns an empty history cache with DefaultHistoryCap.
func NewHistory() *History { return NewHistoryCap(DefaultHistoryCap) }

// NewHistoryCap returns an empty history cache holding at most capacity
// entries (minimum 1).
func NewHistoryCap(capacity int) *History {
	if capacity < 1 {
		capacity = 1
	}
	return &History{m: map[uint64]*list.Element{}, lru: list.New(), cap: capacity}
}

// Observe folds one true row count for a plan expression into the
// history and reports whether the entry changed materially (a new
// expression, or a shift beyond materialDelta) — the caller's cue to
// invalidate cached plans that were built against the old estimate.
// Evictions do not bump the version: losing an entry reverts estimates
// to the planner's defaults, and the drift detector re-learns it.
func (h *History) Observe(canon string, rows int64) bool {
	if rows < 1 {
		rows = 1
	}
	fp := sqlparse.Hash64(canon)
	h.mu.Lock()
	defer h.mu.Unlock()
	if el, ok := h.m[fp]; ok {
		e := el.Value.(*histEntry)
		h.lru.MoveToFront(el)
		old := e.rows
		e.rows = old*(1-ewmaAlpha) + float64(rows)*ewmaAlpha
		rel := (e.rows - old) / old
		if rel < 0 {
			rel = -rel
		}
		if rel > materialDelta {
			h.version++
			return true
		}
		return false
	}
	h.m[fp] = h.lru.PushFront(&histEntry{fp: fp, rows: float64(rows)})
	for len(h.m) > h.cap {
		back := h.lru.Back()
		h.lru.Remove(back)
		delete(h.m, back.Value.(*histEntry).fp)
	}
	h.version++
	return true
}

// Lookup returns the smoothed observed rows for a plan expression and
// refreshes its recency.
func (h *History) Lookup(canon string) (float64, bool) {
	fp := sqlparse.Hash64(canon)
	h.mu.Lock()
	defer h.mu.Unlock()
	el, ok := h.m[fp]
	if !ok {
		return 0, false
	}
	h.lru.MoveToFront(el)
	return el.Value.(*histEntry).rows, true
}

// Len returns the number of remembered plan expressions.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.m)
}

// Cap returns the capacity bound.
func (h *History) Cap() int { return h.cap }

// Version counts material changes; it bumps only when an Observe
// materially moved an entry, so pollers can cheaply detect staleness.
func (h *History) Version() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.version
}
