package core

// EpochEvent is one entry of the catalog's append-only epoch journal: one
// batch of rows appended to one table, stamped with the storage epoch the
// append created. Like LineageEvent for the Tagging Dictionary, the journal
// is the replayable lineage of the storage state — `tprofvet check -epoch`
// (verify.CheckEpochs) replays it against epoch snapshots to prove that
// epochs advance monotonically, that appended windows tile each table's
// tail without gaps or overlaps, and that every snapshot's visible row
// count and zone map are consistent with the appends before it.
type EpochEvent struct {
	// Epoch is the storage epoch created by this append (strictly
	// increasing across the journal; the load epoch is 0).
	Epoch uint64
	// Table names the appended table.
	Table string
	// Lo, Hi is the appended row window [Lo, Hi): Lo is the table's row
	// count before the append, Hi after.
	Lo, Hi int64
	// Grew reports that the append exceeded the table's row capacity (the
	// backing arrays were reallocated) or widened a column, so the catalog
	// version was bumped — the one append path that invalidates compiled
	// artifacts.
	Grew bool
}

// Rows returns the number of rows the event appended.
func (e EpochEvent) Rows() int64 { return e.Hi - e.Lo }
