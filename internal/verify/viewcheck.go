package verify

import (
	"errors"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/mview"
)

// Materialized-view verification (`tprofvet check -views`, DESIGN.md §16).
//
// A view's refresh ledger claims that view-table prefix [0, ViewRows)
// holds exactly the partial aggregates of base-table prefix [0, Covered),
// one ledger entry per build/refresh. CheckViews replays those claims:
// it recomputes every refresh window's partials from the base table with
// the view's own aggregation code (mview.View.ComputePartials — the
// build, refresh, and verification paths share one implementation, so a
// divergence here means the stored bytes or the ledger were corrupted,
// not that two aggregators disagree) and demands byte equality against
// the stored view columns. It also cross-checks the ledger against the
// epoch journal: every window that added partial rows must be backed by
// a journaled append to the view table with exactly that row window.

// CheckViews verifies every registered view of a manager against its
// catalog (CheckView).
func CheckViews(cat *catalog.Catalog, m *mview.Manager) []core.Diag {
	var out []core.Diag
	journal := cat.EpochJournal()
	for _, name := range m.Names() {
		if v, ok := m.Get(name); ok {
			out = append(out, CheckView(cat, v, v.States(), journal)...)
		}
	}
	return out
}

// CheckView verifies one view's refresh ledger (states, oldest first)
// against the catalog and its epoch journal: ledger monotonicity, the
// base and backing tables, coverage bounds, backing-table row counts,
// journal backing for refresh appends, and byte-exact partial contents
// under windowed replay.
func CheckView(cat *catalog.Catalog, v *mview.View, states []mview.RefreshState, journal []core.EpochEvent) []core.Diag {
	var out []core.Diag
	locus := "view " + v.Name

	if len(states) == 0 {
		return []core.Diag{core.Diagf("views/no-ledger", core.LevelTask, locus, "view has no refresh ledger")}
	}

	// The ledger is an append-only history: coverage, view rows and
	// epochs may only grow.
	for i := 1; i < len(states); i++ {
		p, s := states[i-1], states[i]
		if s.Covered < p.Covered || s.ViewRows < p.ViewRows || s.Epoch < p.Epoch {
			out = append(out, core.Diagf("views/ledger-order", core.LevelTask, locus,
				"ledger entry %d (%+v) regresses from %d (%+v)", i, s, i-1, p))
			return out // later checks would chase corrupted indices
		}
	}

	vt, err := cat.Table(v.TableName)
	bt, baseErr := cat.Table(v.Def().Table)
	if err = errors.Join(err, baseErr); err != nil {
		return append(out, core.Diagf("views/table-missing", core.LevelTask, locus, "%v", err))
	}

	last := states[len(states)-1]
	if last.Covered > int64(bt.Rows()) {
		out = append(out, core.Diagf("views/coverage-overrun", core.LevelTask, locus,
			"ledger covers %d base rows, base table has %d", last.Covered, bt.Rows()))
	}
	if last.ViewRows != int64(vt.Rows()) {
		out = append(out, core.Diagf("views/rows-mismatch", core.LevelTask, locus,
			"ledger claims %d partial rows, backing table has %d", last.ViewRows, vt.Rows()))
	}
	if epoch := cat.Epoch(); last.Epoch > epoch {
		out = append(out, core.Diagf("views/epoch-ahead", core.LevelTask, locus,
			"ledger epoch %d is ahead of the catalog epoch %d", last.Epoch, epoch))
	}

	// Every refresh window that added partial rows must be one journaled
	// append to the view table: [prev.ViewRows, st.ViewRows) exactly.
	for i := 1; i < len(states); i++ {
		p, s := states[i-1], states[i]
		if s.ViewRows == p.ViewRows {
			continue // delta aggregated to zero groups; nothing appended
		}
		backed := false
		for _, ev := range journal {
			if ev.Table == v.TableName && ev.Lo == p.ViewRows && ev.Hi == s.ViewRows {
				backed = true
				break
			}
		}
		if !backed {
			out = append(out, core.Diagf("views/journal-missing", core.LevelTask, locus,
				"refresh window [%d,%d) of %s has no matching epoch-journal append",
				p.ViewRows, s.ViewRows, v.TableName))
		}
	}

	// Content replay: recompute each window's partials from the base
	// prefix and compare byte-for-byte with the stored columns. Bound the
	// comparison to what both sides actually hold, so a corrupted ledger
	// produces its own diagnostic above instead of an index panic here.
	// Replay needs the full window history; if the ledger was truncated
	// (its first entry is not the build), windows cannot be
	// reconstructed and the content check is skipped.
	if states[0].Epoch != v.BuildEpoch {
		return out
	}
	bv := bt.View()
	mvView := vt.View()
	prevCovered, prevRows := int64(0), int64(0)
	for i, s := range states {
		if s.Covered > int64(bv.Rows) || s.ViewRows > int64(mvView.Rows) {
			break
		}
		cols, groups := v.ComputePartials(bv, prevCovered, s.Covered)
		if groups != s.ViewRows-prevRows {
			out = append(out, core.Diagf("views/content-mismatch", core.LevelTask, locus,
				"ledger entry %d: window [%d,%d) re-aggregates to %d partial rows, ledger claims %d",
				i, prevCovered, s.Covered, groups, s.ViewRows-prevRows))
			break
		}
		for ci := range cols {
			stored := mvView.Col(ci)[prevRows:s.ViewRows]
			for ri := range cols[ci] {
				if stored[ri] != cols[ci][ri] {
					out = append(out, core.Diagf("views/content-mismatch", core.LevelTask, locus,
						"partial row %d col %d holds %d, replay of base window [%d,%d) yields %d",
						prevRows+int64(ri), ci, stored[ri], prevCovered, s.Covered, cols[ci][ri]))
					return out
				}
			}
		}
		prevCovered, prevRows = s.Covered, s.ViewRows
	}
	return out
}
