package mutate

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/catalog"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/mview"
	"repro/internal/verify"
)

// State mutants corrupt what the state replay checkers read: a run's shard
// journals (verify.CheckShards), the epoch journal and its snapshots
// (verify.CheckEpochs), and a view's refresh ledger with the tables and
// journal behind it (verify.CheckView). Each models a coordinator, storage
// or refresh bug that records a state the run never had.

// Journal enumerates mutants over one run's shard journals; every Apply
// corrupts *js, which must be a deep copy (CloneJournals).
func Journal(js *[]core.ShardState) []Mutant {
	type zref struct {
		j *core.ShardState
		z int
	}
	var zs []zref
	for s := range *js {
		for z := range (*js)[s].Zones {
			zs = append(zs, zref{&(*js)[s], z})
		}
	}
	zone := func(k int) *core.ZoneDecision { return &zs[k].j.Zones[zs[k].z] }
	zsite := func(k int) string {
		return fmt.Sprintf("%s shard %d zone %d", zs[k].j.Alias, zs[k].j.Shard, zone(k).Zone)
	}
	ssite := func(s int) string { return fmt.Sprintf("%s shard %d", (*js)[s].Alias, (*js)[s].Shard) }
	pipe := func(s int) int {
		if s < 0 || s >= len(*js) {
			return -1
		}
		return (*js)[s].Pipeline
	}
	var muts []Mutant
	// A zone journaled one row late: its first row belongs to no zone.
	addClass(&muts, "shard/shift-zone", len(zs), nil, zsite, func(k int) { zone(k).Lo++ })
	// A shard's last zone never journaled.
	addClass(&muts, "shard/drop-zone", len(zs), func(k int) bool { return zs[k].z == len(zs[k].j.Zones)-1 }, zsite,
		func(k int) { zs[k].j.Zones = zs[k].j.Zones[:zs[k].z] })
	// One shard of a split table never journaled.
	addClass(&muts, "shard/drop-shard", len(*js), func(s int) bool { return pipe(s-1) == pipe(s) || pipe(s+1) == pipe(s) }, ssite,
		func(s int) { *js = slices.Delete(*js, s, s+1) })
	// A zone stamped with its predecessor's tag.
	addClass(&muts, "shard/retag-zone", len(zs), func(k int) bool { return zone(k).Zone > 0 }, zsite, func(k int) { zone(k).Zone-- })
	// A verdict recorded under a cause the coordinator has no rule for.
	addClass(&muts, "shard/garble-cause", len(zs), nil, zsite, func(k int) { zone(k).Cause += "?" })
	// A pipeline journaled under a scan alias the plan does not have.
	addClass(&muts, "shard/rename-alias", len(*js), func(s int) bool { return pipe(s-1) != pipe(s) }, ssite, func(s int) {
		for i := s; pipe(i) == pipe(s); i++ {
			(*js)[i].Alias += "'"
		}
	})
	return muts
}

// CloneJournals deep-copies shard journals for Journal.
func CloneJournals(js []core.ShardState) []core.ShardState {
	out := slices.Clone(js)
	for i := range out {
		out[i].Zones = slices.Clone(out[i].Zones)
	}
	return out
}

// Views are the views `tprofvet check -views` registers: name, definition.
var Views = [][2]string{
	{"rev_by_prod", "select id, sum(price), count(*) from sales group by id"},
	{"flag_totals", "select l_returnflag, sum(l_extendedprice), count(*), min(l_quantity), max(l_quantity) from lineitem group by l_returnflag"},
}

// ingest is a scripted ingest's state: the epoch journal's replay inputs,
// the catalog with its views, and a copy of each view's ledger (in Views
// order).
type ingest struct {
	base    map[string]int64
	journal []core.EpochEvent
	snaps   []verify.EpochSnapshot
	cat     *catalog.Catalog
	views   []*mview.View
	ledgers [][]mview.RefreshState
}

// runIngest runs the scripted ingest of `tprofvet check -epoch` and
// `-views` on a catalog of its own (sf 0.01, seed 42): the Views, then
// 64-row batches appended to sales, lineitem and orders in turn, each
// followed by a refresh of every view and an epoch snapshot. It is
// deterministic, and cheap enough (about a millisecond) to run once per
// mutant.
func runIngest() (*ingest, error) {
	cat := datagen.Generate(datagen.Config{ScaleFactor: 0.01, Seed: 42})
	m := mview.NewManager(cat)
	in := &ingest{cat: cat}
	for _, v := range Views {
		view, err := m.Create(v[0], v[1], mview.RefreshIncremental)
		if err != nil {
			return nil, err
		}
		in.views = append(in.views, view)
	}
	in.base = cat.BaseRows()
	in.snaps = append(in.snaps, verify.SnapshotEpochState(cat.Snapshot(), cat.Names()))
	for step, table := range []string{"sales", "lineitem", "orders", "sales", "lineitem", "orders"} {
		tb, err := cat.Table(table)
		if err != nil {
			return nil, err
		}
		if _, err := cat.AppendCols(table, datagen.AppendBatch(tb, 64, uint64(step+1))); err != nil {
			return nil, err
		}
		for _, v := range Views {
			if err := m.Refresh(v[0]); err != nil {
				return nil, err
			}
		}
		in.snaps = append(in.snaps, verify.SnapshotEpochState(cat.Snapshot(), cat.Names()))
	}
	in.journal = cat.EpochJournal()
	for _, v := range in.views {
		in.ledgers = append(in.ledgers, v.States())
	}
	return in, nil
}

// checkEpochs and checkViews judge an ingest as `tprofvet check -epoch`
// and `-views` judge theirs, each view against its ledger copy.
func (in *ingest) checkEpochs() []verify.Diag {
	return verify.CheckEpochs(in.base, in.journal, in.snaps)
}

func (in *ingest) checkViews() []verify.Diag {
	var ds []verify.Diag
	for i, v := range in.views {
		ds = append(ds, verify.CheckView(in.cat, v, in.ledgers[i], in.journal)...)
	}
	return ds
}

// epochMutants enumerates mutants over the epoch journal's replay inputs;
// every Apply corrupts in.
func (in *ingest) epochMutants() []Mutant {
	var names []string
	for t := range in.base {
		names = append(names, t)
	}
	slices.Sort(names)
	nt, jr := len(names), in.journal
	event := func(k int) string { return fmt.Sprintf("journal[%d] %s", k, jr[k].Table) }
	// Snapshot sites: k is table k%nt of snapshot k/nt, after the first,
	// where the table held rows the snapshot before (so it still does).
	snap := func(k int) string { return fmt.Sprintf("epoch %d %s", in.snaps[k/nt].Epoch, names[k%nt]) }
	later := func(k int) bool { return k >= nt && len(in.snaps[k/nt-1].Tables[names[k%nt]].Bounds) > 0 }
	edit := func(k int, f func(*verify.EpochTableState)) {
		tables := in.snaps[k/nt].Tables
		st := tables[names[k%nt]]
		f(&st)
		tables[names[k%nt]] = st
	}
	var muts []Mutant
	// An append journaled before the one that preceded it.
	addClass(&muts, "epoch/swap-events", len(jr), func(k int) bool { return k > 0 }, event, func(k int) { jr[k-1], jr[k] = jr[k], jr[k-1] })
	// An append journaled one row past the table's tail.
	addClass(&muts, "epoch/shift-window", len(jr), nil, event, func(k int) { jr[k].Lo++ })
	// An append journaled with no rows.
	addClass(&muts, "epoch/empty-window", len(jr), nil, event, func(k int) { jr[k].Lo = jr[k].Hi })
	// A table missing from the load state.
	addClass(&muts, "epoch/drop-base", nt, nil, func(k int) string { return names[k] }, func(k int) { delete(in.base, names[k]) })
	// A snapshot that sees a row the journal never appended.
	addClass(&muts, "epoch/snap-rows", nt*len(in.snaps), later, snap, func(k int) {
		edit(k, func(st *verify.EpochTableState) { st.Rows++ })
	})
	// A snapshot whose zone map is cut at another granularity.
	addClass(&muts, "epoch/snap-granularity", nt*len(in.snaps), later, snap, func(k int) {
		edit(k, func(st *verify.EpochTableState) { st.ZoneRows++ })
	})
	// A snapshot whose first column lost the previous epoch's minimum.
	addClass(&muts, "epoch/snap-bounds", nt*len(in.snaps), later, snap, func(k int) {
		lo := in.snaps[k/nt-1].Tables[names[k%nt]].Bounds[0].Min
		edit(k, func(st *verify.EpochTableState) { st.Bounds[0].Min = lo + 1 })
	})
	return muts
}

// viewMutants enumerates mutants over every view's replay inputs; every
// Apply corrupts in or its catalog.
func (in *ingest) viewMutants() []Mutant {
	var muts []Mutant
	for vi, v := range in.views {
		led, n := in.ledgers[vi], len(in.ledgers[vi])
		// The clean ingest's checkViews found both tables.
		vt, _ := in.cat.Table(v.TableName)
		bt, _ := in.cat.Table(v.Def().Table)
		partials := vt.Cols[len(vt.Cols)-1].Data[:vt.Rows()]
		names := []*string{&v.TableName, &v.Def().Table}
		entry := func(i int) string { return fmt.Sprintf("view %s ledger[%d]", v.Name, i) }
		newest := func(i int) bool { return i == n-1 }
		// The ledger lost.
		addClass(&muts, "views/drop-ledger", n, newest, entry, func(int) { in.ledgers[vi] = nil })
		// An entry that covers fewer base rows than the one before it.
		addClass(&muts, "views/regress-ledger", n, func(i int) bool { return i > 0 }, entry, func(i int) { led[i].Covered = led[i-1].Covered - 1 })
		// The newest entry claims base rows the table does not have.
		addClass(&muts, "views/overrun-coverage", n, newest, entry, func(i int) { led[i].Covered = int64(bt.Rows()) + 1 })
		// Refreshes that appended partial rows, never ledgered.
		addClass(&muts, "views/truncate-ledger", n, func(i int) bool { return i > 0 && led[n-1].ViewRows > led[i-1].ViewRows }, entry,
			func(i int) { in.ledgers[vi] = led[:i] })
		// The newest entry stamped with an epoch the catalog has not reached.
		addClass(&muts, "views/epoch-ahead", n, newest, entry, func(i int) { led[i].Epoch = in.cat.Epoch() + 1 })
		// A refresh append missing from the epoch journal.
		addClass(&muts, "views/drop-journal", len(in.journal), func(i int) bool { return in.journal[i].Table == v.TableName },
			func(i int) string { return fmt.Sprintf("view %s journal[%d]", v.Name, i) },
			func(i int) { in.journal = slices.Delete(in.journal, i, i+1) })
		// The backing or the base table under another name.
		addClass(&muts, "views/rename-table", len(names), nil, func(i int) string { return "view " + v.Name + " table " + *names[i] },
			func(i int) { *names[i] += "'" })
		// A stored partial that no replay of its base window yields.
		addClass(&muts, "views/corrupt-partial", len(partials), nil, func(r int) string {
			return fmt.Sprintf("view %s partial row %d", v.Name, r)
		}, func(r int) { partials[r] += 17 })
	}
	return muts
}

// JudgeIngest judges the state mutants of the scripted ingest (runIngest)
// the way `tprofvet check -epoch` and `-views` judge its journals: the
// clean ingest must replay silently through verify.CheckEpochs and
// verify.CheckView, and every mutant is applied to an ingest of its own.
func JudgeIngest() ([]Verdict, error) {
	clean, err := runIngest()
	if err != nil {
		return nil, fmt.Errorf("scripted ingest: %w", err)
	}
	if err := verify.AsError(append(clean.checkEpochs(), clean.checkViews()...)); err != nil {
		return nil, fmt.Errorf("clean ingest flagged: %w", err)
	}
	epochs, err := judgeAll(runIngest, (*ingest).epochMutants, func(in *ingest, _ Mutant) []verify.Diag { return in.checkEpochs() })
	views, verr := judgeAll(runIngest, (*ingest).viewMutants, func(in *ingest, _ Mutant) []verify.Diag { return in.checkViews() })
	return append(epochs, views...), errors.Join(err, verr)
}
