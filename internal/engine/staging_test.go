package engine

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/codegen"
	"repro/internal/pipeline"
	"repro/internal/ref"
)

// TestParallelStagingCarriesNothing: a session's parallel runs reuse one
// parStage — the workers' morsel slabs and the merge's scratch — whatever
// the previous run staged in it. One session alternates statements whose
// sinks differ in kind, partition count and entry size, and one run that
// fails with a worker's full arena; every run must equal ref's rows and,
// byte for byte, the heap and canonical profile of a run on new machines
// and a new stage.
func TestParallelStagingCarriesNothing(t *testing.T) {
	cat := testCatalog(t)
	stmts := []struct {
		sql        string
		partitions int
	}{
		{"select o_custkey, sum(o_totalprice) as t from orders group by o_custkey", 8},
		{"select l_orderkey, l_partkey, l_quantity from lineitem, orders where o_orderkey = l_orderkey and o_totalprice < 100000 and l_quantity < 10", 2},
		{"select l_orderkey, count(*) as n, sum(l_quantity) as q, max(l_extendedprice) as m from orders, lineitem where o_orderkey = l_orderkey group by l_orderkey", 4},
		{"select l_orderkey, l_suppkey, l_quantity, l_discount from lineitem where l_quantity < 3", 8},
		{"select l_suppkey, l_tax, sum(l_quantity) as q, min(l_discount) as d, max(l_extendedprice) as m, count(*) as n from lineitem group by l_suppkey, l_tax", 1},
		// One group: seven of its eight partitions stage nothing.
		{"select count(*) as n, sum(o_totalprice) as t from orders where o_custkey < 50", 8},
	}
	var ps []*Prepared
	kinds, parts, sizes := map[pipeline.SinkKind]bool{}, map[int64]bool{}, map[int64]bool{}
	for _, s := range stmts {
		opts := DefaultOptions()
		opts.Partitions = s.partitions
		cq, err := NewCompiler(cat, opts).CompileSQL(s.sql)
		if err != nil {
			t.Fatalf("%s: %v", s.sql, err)
		}
		for _, info := range cq.Pipe.Pipelines {
			kinds[info.Sink.Kind] = true
			if ht := info.Sink.HT; ht != nil && info.Merge != nil {
				parts[ht.Partitions], sizes[ht.EntrySize] = true, true
			}
		}
		ps = append(ps, &Prepared{Compiled: cq})
	}
	for _, k := range []pipeline.SinkKind{pipeline.SinkOutput, pipeline.SinkJoinBuild, pipeline.SinkGJBuild, pipeline.SinkGJProbe, pipeline.SinkGroupAgg} {
		if !kinds[k] {
			t.Fatalf("no statement has a sink of kind %d", k)
		}
	}
	if len(parts) < 4 || len(sizes) < 3 {
		t.Fatalf("the statements' merges have %d partition counts and %d entry sizes; want at least 4 and 3", len(parts), len(sizes))
	}

	// full is the first group-by with an arena that holds one entry: a
	// worker's first morsel fills it.
	cq := *ps[0].Compiled
	cq.writes = append([]slotWrite(nil), cq.writes...)
	for _, ht := range cq.Layout.HT {
		for i := range cq.writes {
			if cq.writes[i].addr == ht.Desc+codegen.HTDescEnd {
				cq.writes[i].val = ht.Arena + ht.EntrySize
			}
		}
	}
	full := &Prepared{Compiled: &cq}

	// Each statement runs once after every other one, and after the
	// failed run.
	order := []int{0, 1, 2, 3, 4, 5, 0, 2, 4, 1, 3, 5, 4, 2, 0, 5, 3, 1, 5, -1, 0, 1, 2, 3, 4, 5}
	for _, workers := range []int{2, 4} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("workers%d-shards%d", workers, shards), func(t *testing.T) {
				se := NewService(cat, DefaultOptions(), 0).NewSession()
				se.SetWorkers(workers)
				se.SetShards(shards)
				cfg := pgoSampling()
				for step, i := range order {
					if i < 0 {
						_, err := se.Run(full, cfg)
						var rf *RegionFullError
						if !errors.As(err, &rf) || rf.Region != "hash-table arena" {
							t.Fatalf("step %d: %v, want a full hash-table arena", step, err)
						}
						continue
					}
					p := ps[i]
					res, err := se.Run(p, cfg)
					if err != nil {
						t.Fatalf("step %d (%s): %v", step, stmts[i].sql, err)
					}
					want, err := ref.Execute(p.Compiled.Plan)
					if err != nil {
						t.Fatal(err)
					}
					rowsEqual(t, res.Rows, want, false)
					if err := matchesFresh(res, se, p, nil, cfg); err != nil {
						t.Fatalf("step %d (%s): %v", step, stmts[i].sql, err)
					}
				}
			})
		}
	}
}
