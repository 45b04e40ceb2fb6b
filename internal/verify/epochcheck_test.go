package verify

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/core"
)

// cleanEpochRun builds a consistent ingest fixture: one table loaded with
// 1000 rows, three append batches, and snapshots at the load epoch and
// after each append. Zone granularity for these sizes is the 256-row
// minimum, so every snapshot carries ZoneRows 256; bounds widen once as
// the tail introduces a larger maximum.
func cleanEpochRun() (map[string]int64, []core.EpochEvent, []EpochSnapshot) {
	base := map[string]int64{"t": 1000}
	journal := []core.EpochEvent{
		{Epoch: 1, Table: "t", Lo: 1000, Hi: 1100},
		{Epoch: 2, Table: "t", Lo: 1100, Hi: 1164},
		{Epoch: 3, Table: "t", Lo: 1164, Hi: 1420, Grew: false},
	}
	snaps := []EpochSnapshot{
		{Epoch: 0, Tables: map[string]EpochTableState{
			"t": {Rows: 1000, ZoneRows: 256, Bounds: []catalog.Bound{{Min: 0, Max: 50}}}}},
		{Epoch: 1, Tables: map[string]EpochTableState{
			"t": {Rows: 1100, ZoneRows: 256, Bounds: []catalog.Bound{{Min: 0, Max: 50}}}}},
		{Epoch: 2, Tables: map[string]EpochTableState{
			"t": {Rows: 1164, ZoneRows: 256, Bounds: []catalog.Bound{{Min: 0, Max: 80}}}}},
		{Epoch: 3, Tables: map[string]EpochTableState{
			"t": {Rows: 1420, ZoneRows: 256, Bounds: []catalog.Bound{{Min: 0, Max: 80}}}}},
	}
	return base, journal, snaps
}

func TestCheckEpochsClean(t *testing.T) {
	base, journal, snaps := cleanEpochRun()
	if ds := CheckEpochs(base, journal, snaps); len(ds) != 0 {
		t.Fatalf("clean fixture produced diagnostics: %v", ds)
	}
}

func TestCheckEpochsCorruptions(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(base map[string]int64, j []core.EpochEvent, s []EpochSnapshot) (map[string]int64, []core.EpochEvent, []EpochSnapshot)
		want    string
	}{
		{"non-monotonic epoch", func(base map[string]int64, j []core.EpochEvent, s []EpochSnapshot) (map[string]int64, []core.EpochEvent, []EpochSnapshot) {
			j[2].Epoch = 2 // repeats the previous epoch
			return base, j, s
		}, "epoch/non-monotonic"},
		{"window overlap", func(base map[string]int64, j []core.EpochEvent, s []EpochSnapshot) (map[string]int64, []core.EpochEvent, []EpochSnapshot) {
			j[1].Lo = 1050 // re-appends rows epoch 1 already covered
			return base, j, s
		}, "epoch/window-gap"},
	}
	for _, tc := range cases {
		base, journal, snaps := cleanEpochRun()
		base, journal, snaps = tc.corrupt(base, journal, snaps)
		ds := CheckEpochs(base, journal, snaps)
		if !hasCheck(ds, tc.want) {
			t.Errorf("%s: expected a %s diagnostic, got %v", tc.name, tc.want, ds)
		}
	}
}

// TestCheckEpochsLiveCatalog closes the loop against the real storage
// layer: appends to a live catalog, snapshots reduced via
// SnapshotEpochState, and the catalog's own journal must replay clean.
func TestCheckEpochsLiveCatalog(t *testing.T) {
	c := catalog.New()
	tb := catalog.NewTable("t")
	a := tb.AddCol("a", catalog.TInt)
	for i := 0; i < 1500; i++ {
		a.Data = append(a.Data, int64(i%97))
	}
	c.Add(tb)
	base := c.BaseRows()

	snaps := []EpochSnapshot{SnapshotEpochState(c.Snapshot(), c.Names())}
	for i := 0; i < 3; i++ {
		batch := [][]int64{make([]int64, 120)}
		for k := range batch[0] {
			batch[0][k] = int64(k % 97)
		}
		if _, err := c.AppendCols("t", batch); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, SnapshotEpochState(c.Snapshot(), c.Names()))
	}
	if ds := CheckEpochs(base, c.EpochJournal(), snaps); len(ds) != 0 {
		t.Fatalf("live catalog journal produced diagnostics: %v", ds)
	}
}
