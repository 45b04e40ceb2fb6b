package verify

import (
	"fmt"
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

func epochDiag(check, locus, format string, args ...interface{}) Diag {
	return Diag{Check: check, Level: core.LevelTask,
		Locus: locus, Msg: fmt.Sprintf(format, args...)}
}

// CheckEpochs replays an epoch journal from the load-time row counts
// (base) and verifies the given snapshots against the replayed state.
// Snapshots may be supplied in any order; each is checked against the
// journal prefix with Epoch <= snapshot epoch.
func CheckEpochs(base map[string]int64, journal []core.EpochEvent, snaps []EpochSnapshot) []Diag {
	var out []Diag

	// Pass 1: the journal itself. Epochs strictly increase; each event's
	// window starts exactly at the table's replayed row count and is
	// non-empty.
	rows := make(map[string]int64, len(base))
	for t, n := range base {
		rows[t] = n
	}
	var prevEpoch uint64
	for i, ev := range journal {
		locus := fmt.Sprintf("journal[%d] %s", i, ev.Table)
		if ev.Epoch <= prevEpoch {
			out = append(out, epochDiag("epoch/non-monotonic", locus,
				"epoch %d follows %d", ev.Epoch, prevEpoch))
		}
		prevEpoch = ev.Epoch
		if ev.Hi <= ev.Lo {
			out = append(out, epochDiag("epoch/window-empty", locus,
				"append window [%d,%d) holds no rows", ev.Lo, ev.Hi))
			continue
		}
		at, known := rows[ev.Table]
		if !known {
			out = append(out, epochDiag("epoch/unknown-table", locus,
				"append to table with no load-time row count"))
			rows[ev.Table] = ev.Hi
			continue
		}
		if ev.Lo != at {
			out = append(out, epochDiag("epoch/window-gap", locus,
				"append window starts at %d, table tail is at %d", ev.Lo, at))
		}
		rows[ev.Table] = ev.Hi
	}

	// Pass 2: snapshots against the replayed prefix. Work in epoch order
	// so bound-regression compares consecutive observations.
	ordered := make([]EpochSnapshot, len(snaps))
	copy(ordered, snaps)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].Epoch < ordered[j].Epoch })

	prevBounds := map[string][]catalog.Bound{}
	for si, snap := range ordered {
		if si > 0 && snap.Epoch == ordered[si-1].Epoch {
			// Two observations of one epoch must agree exactly.
			if !epochSnapshotsEqual(snap, ordered[si-1]) {
				out = append(out, epochDiag("epoch/snap-order",
					fmt.Sprintf("epoch %d", snap.Epoch),
					"two snapshots of the same epoch disagree"))
			}
		}
		// Replay the journal prefix visible to this snapshot.
		visible := make(map[string]int64, len(base))
		for t, n := range base {
			visible[t] = n
		}
		for _, ev := range journal {
			if ev.Epoch > snap.Epoch {
				break
			}
			if ev.Hi > ev.Lo {
				visible[ev.Table] = ev.Hi
			}
		}
		for _, table := range sortedTables(snap.Tables) {
			st := snap.Tables[table]
			locus := fmt.Sprintf("epoch %d %s", snap.Epoch, table)
			want, known := visible[table]
			if !known {
				out = append(out, epochDiag("epoch/unknown-table", locus,
					"snapshot covers table absent from the load state"))
				continue
			}
			if st.Rows != want {
				out = append(out, epochDiag("epoch/rows-mismatch", locus,
					"snapshot sees %d rows, journal prefix yields %d", st.Rows, want))
			}
			wantZ := catalog.ZoneRowsFor(int(st.Rows))
			if st.Rows < wantZ {
				wantZ = st.Rows // single short zone on tiny tables
			}
			if st.ZoneRows != wantZ {
				out = append(out, epochDiag("epoch/zone-granularity", locus,
					"zone granularity %d, want %d for %d rows (pure function of the table)",
					st.ZoneRows, wantZ, st.Rows))
			}
			if prev, ok := prevBounds[table]; ok && len(prev) == len(st.Bounds) {
				for ci := range prev {
					if prev[ci].Empty() {
						continue
					}
					if st.Bounds[ci].Min > prev[ci].Min || st.Bounds[ci].Max < prev[ci].Max {
						out = append(out, epochDiag("epoch/zone-regression", locus,
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

func epochSnapshotsEqual(a, b EpochSnapshot) bool {
	if len(a.Tables) != len(b.Tables) {
		return false
	}
	for t, sa := range a.Tables {
		sb, ok := b.Tables[t]
		if !ok || sa.Rows != sb.Rows || sa.ZoneRows != sb.ZoneRows || len(sa.Bounds) != len(sb.Bounds) {
			return false
		}
		for i := range sa.Bounds {
			if sa.Bounds[i] != sb.Bounds[i] {
				return false
			}
		}
	}
	return true
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
			st.ZoneRows = zones[0].Hi - zones[0].Lo
			ncols := len(zones[0].Bounds)
			st.Bounds = make([]catalog.Bound, ncols)
			for ci := range st.Bounds {
				st.Bounds[ci] = catalog.Bound{Min: 1, Max: 0} // empty
			}
			for _, z := range zones {
				for ci, b := range z.Bounds {
					if b.Empty() {
						continue
					}
					if st.Bounds[ci].Empty() {
						st.Bounds[ci] = b
						continue
					}
					if b.Min < st.Bounds[ci].Min {
						st.Bounds[ci].Min = b.Min
					}
					if b.Max > st.Bounds[ci].Max {
						st.Bounds[ci].Max = b.Max
					}
				}
			}
		}
		es.Tables[name] = st
	}
	return es
}
