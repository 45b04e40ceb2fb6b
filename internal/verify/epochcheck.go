package verify

import (
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/catalog"
	"repro/internal/core"
)

// Epoch-journal verification (`tprofvet check -epoch`, DESIGN.md §15).
//
// Streaming ingest leaves its own lineage trail: the catalog's epoch
// journal (one EpochEvent per append batch) plus epoch snapshots taken
// whenever a session pins the storage state. The storage contract is that
// epochs advance strictly, appended windows tile each table's tail
// contiguously from the load state, every snapshot's visible row count is
// exactly the journal prefix up to its epoch, zone granularity stays a
// pure function of the visible row count, and per-column zone bounds only
// widen from one epoch to the next (append-only data can never shrink an
// interval). This checker replays the journal structurally against the
// snapshots, mirroring CheckShards for the shard journals.

// EpochTableState is one table's visible state inside an epoch snapshot.
type EpochTableState struct {
	Rows     int64
	ZoneRows int64           // granularity of the snapshot's zone map
	Bounds   []catalog.Bound // per-column bounds folded over the zone map
}

// EpochSnapshot is the storage state one session observed: the epoch it
// pinned and each table's visible rows, zone granularity, and folded
// zone bounds at that epoch.
type EpochSnapshot struct {
	Epoch  uint64
	Tables map[string]EpochTableState
}

// CheckEpochs replays an epoch journal from the load-time row counts
// (base) and verifies the given snapshots against the replayed state.
// Snapshots may be supplied in any order; each is checked against the
// journal prefix with Epoch <= snapshot epoch.
func CheckEpochs(base map[string]int64, journal []core.EpochEvent, snaps []EpochSnapshot) []Diag {
	var out []Diag

	// Pass 1: the journal itself. Epochs strictly increase; each event's
	// window is non-empty and starts exactly at the table's replayed row
	// count.
	rows := make(map[string]int64, len(base))
	maps.Copy(rows, base)
	var prevEpoch uint64
	for i, ev := range journal {
		locus := fmt.Sprintf("journal[%d] %s", i, ev.Table)
		if ev.Epoch <= prevEpoch {
			out = append(out, stateDiag("epoch/non-monotonic", locus,
				"epoch %d follows %d", ev.Epoch, prevEpoch))
		}
		prevEpoch = ev.Epoch
		at, known := rows[ev.Table]
		rows[ev.Table] = ev.Hi
		switch {
		case ev.Hi <= ev.Lo:
			out = append(out, stateDiag("epoch/window-empty", locus,
				"append window [%d,%d) holds no rows", ev.Lo, ev.Hi))
		case !known:
			out = append(out, stateDiag("epoch/unknown-table", locus,
				"append to table with no load-time row count"))
		case ev.Lo != at:
			out = append(out, stateDiag("epoch/window-gap", locus,
				"append window starts at %d, table tail is at %d", ev.Lo, at))
		}
	}

	// Pass 2: snapshots against the journaled state at their epoch. Work
	// in epoch order so bound-regression compares consecutive
	// observations.
	ordered := slices.Clone(snaps)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Epoch < ordered[j].Epoch })

	prevBounds := map[string][]catalog.Bound{}
	for _, snap := range ordered {
		// Replay the journal events visible to this snapshot: a table
		// holds rows up to its furthest window.
		visible := make(map[string]int64, len(base))
		maps.Copy(visible, base)
		for _, ev := range journal {
			if ev.Epoch <= snap.Epoch {
				visible[ev.Table] = max(visible[ev.Table], ev.Hi)
			}
		}
		for _, table := range sortedTables(snap.Tables) {
			st := snap.Tables[table]
			locus := fmt.Sprintf("epoch %d %s", snap.Epoch, table)
			want, known := visible[table]
			if !known {
				out = append(out, stateDiag("epoch/unknown-table", locus,
					"snapshot covers table absent from the load state"))
				continue
			}
			if st.Rows != want {
				out = append(out, stateDiag("epoch/rows-mismatch", locus,
					"snapshot sees %d rows, journal prefix yields %d", st.Rows, want))
			}
			wantZ := min(catalog.ZoneRowsFor(int(want)), want) // one short zone on tiny tables
			if st.ZoneRows != wantZ {
				out = append(out, stateDiag("epoch/zone-granularity", locus,
					"zone granularity %d, want %d for %d rows (pure function of the table)",
					st.ZoneRows, wantZ, want))
			}
			if prev, ok := prevBounds[table]; ok && len(prev) == len(st.Bounds) {
				for ci := range prev {
					if prev[ci].Empty() {
						continue
					}
					if st.Bounds[ci].Min > prev[ci].Min || st.Bounds[ci].Max < prev[ci].Max {
						out = append(out, stateDiag("epoch/zone-regression", locus,
							"col %d bounds [%d,%d] shrank from [%d,%d] — append-only bounds may only widen",
							ci, st.Bounds[ci].Min, st.Bounds[ci].Max, prev[ci].Min, prev[ci].Max))
					}
				}
			}
			prevBounds[table] = st.Bounds
		}
	}
	return out
}

func sortedTables(m map[string]EpochTableState) []string {
	names := make([]string, 0, len(m))
	for t := range m {
		names = append(names, t)
	}
	sort.Strings(names)
	return names
}

// SnapshotEpochState reduces a live catalog snapshot to the checker's
// input form: per table, the visible rows, the zone granularity the view
// exposes, and the folded per-column bounds of its zone map.
func SnapshotEpochState(snap *catalog.Snapshot, tables []string) EpochSnapshot {
	es := EpochSnapshot{Epoch: snap.Epoch, Tables: map[string]EpochTableState{}}
	for _, name := range tables {
		v := snap.View(name)
		if v == nil {
			continue
		}
		zones := v.Zones()
		st := EpochTableState{Rows: int64(v.Rows)}
		if len(zones) > 0 {
			// A zone holds at least one row, so none of its bounds is empty.
			st.ZoneRows = zones[0].Hi - zones[0].Lo
			st.Bounds = slices.Clone(zones[0].Bounds)
			for _, z := range zones[1:] {
				for ci, b := range z.Bounds {
					st.Bounds[ci] = catalog.Bound{Min: min(st.Bounds[ci].Min, b.Min), Max: max(st.Bounds[ci].Max, b.Max)}
				}
			}
		}
		es.Tables[name] = st
	}
	return es
}
