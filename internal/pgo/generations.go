// Package pgo tracks which profile guides each query's compile. Tailored
// Profiling attributes samples upward, from native instruction through IR
// instruction to task and operator; a profile-guided recompile runs that
// lineage back down, and it consumes exactly one thing: the profile's
// per-IR-instruction weights (core.Profile.IRWeight), which raise the
// spill priority of the values hot instructions touch. Block layout comes
// from the plan's estimated counts on every compile, guided or not.
//
// The weights are only as good as the Tagging Dictionary's lineage: a
// profile keys them by IR instruction ID, and a recompile reuses those IDs
// because pipeline lowering and the optimization passes are deterministic.
package pgo

import (
	"maps"
	"sync"
)

// Generations tracks, per query fingerprint, the current profile-guided
// compilation generation and the IR weights backing it. The
// compiled-query cache keys artifacts by (fingerprint, ..., generation):
// when adaptive recompilation finds a profile that beats the current
// binary, Promote bumps the generation, which both routes future lookups
// to the tuned artifact and lets the service drop the stale ones. Keeping
// the weights themselves means an artifact evicted from the cache can be
// recompiled under guidance without re-profiling.
type Generations struct {
	mu sync.Mutex
	m  map[uint64]*genState
}

type genState struct {
	gen     uint64
	weights map[int]float64
}

// NewGenerations returns an empty generation table.
func NewGenerations() *Generations {
	return &Generations{m: map[uint64]*genState{}}
}

// Current returns a fingerprint's generation; 0 means unguided.
func (g *Generations) Current(fp uint64) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.m[fp]; ok {
		return s.gen
	}
	return 0
}

// Weights returns the IR weights guiding a fingerprint's current
// generation, or nil when no profile was promoted. The caller must not
// modify the map.
func (g *Generations) Weights(fp uint64) map[int]float64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.m[fp]; ok {
		return s.weights
	}
	return nil
}

// Promote installs a copy of weights as a fingerprint's guiding profile
// and returns the new (bumped) generation.
func (g *Generations) Promote(fp uint64, weights map[int]float64) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.m[fp]
	if !ok {
		s = &genState{}
		g.m[fp] = s
	}
	s.gen++
	s.weights = maps.Clone(weights)
	return s.gen
}

// Bump advances a fingerprint's generation without touching its guiding
// profile — the cardinality-history invalidation path: when observed
// true cardinalities materially shift, the plan (not the backend
// guidance) is stale, so the service bumps the generation to route the
// next Prepare to a fresh, history-corrected compile while any promoted
// weights keep guiding it.
func (g *Generations) Bump(fp uint64) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.m[fp]
	if !ok {
		s = &genState{}
		g.m[fp] = s
	}
	s.gen++
	return s.gen
}
