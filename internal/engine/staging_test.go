package engine

import (
	"fmt"
	"testing"

	"repro/internal/pipeline"
)

// TestParallelStagingCarriesNothing: a session's parallel runs reuse one
// parStage — the workers' morsel slabs and the merge's scratch — whatever
// the previous run staged in it. One session alternates statements whose
// sinks differ in kind, partition count and entry size; every run must
// equal ref's rows and, byte for byte, the heap and canonical profile of
// a run on new machines and a new stage. (A run that fails with a full
// arena is among TestRecycledRunsSurviveFailures' failures.)
func TestParallelStagingCarriesNothing(t *testing.T) {
	kinds, sizes := map[pipeline.SinkKind]bool{}, map[int64]bool{}
	l := parallelStagingCarriesNothing()
	l.each = func(t *testing.T, r latticeRun) {
		for _, info := range r.p.Compiled.Pipe.Pipelines {
			kinds[info.Sink.Kind] = true
			if ht := info.Sink.HT; ht != nil && info.Merge != nil {
				sizes[ht.EntrySize] = true
			}
		}
	}
	l.run(t)
	for _, k := range []pipeline.SinkKind{pipeline.SinkOutput, pipeline.SinkJoinBuild, pipeline.SinkGJBuild, pipeline.SinkGJProbe, pipeline.SinkGroupAgg} {
		if !kinds[k] {
			t.Fatalf("no statement has a sink of kind %d", k)
		}
	}
	if len(sizes) < 3 {
		t.Fatalf("the statements' merges have %d entry sizes; want at least 3", len(sizes))
	}
}

// parallelStagingCarriesNothing runs each statement after three others,
// at every pair of values of Workers {2,4}, Shards {0,2} and Partitions
// {1,2,4,8} (8 of the 16 cells).
func parallelStagingCarriesNothing() *lattice {
	stmts := []stmt{
		sqlStmt("group", "select o_custkey, sum(o_totalprice) as t from orders group by o_custkey"),
		sqlStmt("join", "select l_orderkey, l_partkey, l_quantity from lineitem, orders where o_orderkey = l_orderkey and o_totalprice < 100000 and l_quantity < 10"),
		sqlStmt("groupjoin", "select l_orderkey, count(*) as n, sum(l_quantity) as q, max(l_extendedprice) as m from orders, lineitem where o_orderkey = l_orderkey group by l_orderkey"),
		sqlStmt("scan", "select l_orderkey, l_suppkey, l_quantity, l_discount from lineitem where l_quantity < 3"),
		sqlStmt("wide-group", "select l_suppkey, l_tax, sum(l_quantity) as q, min(l_discount) as d, max(l_extendedprice) as m, count(*) as n from lineitem group by l_suppkey, l_tax"),
		// One group: all but one of its partitions stage nothing.
		sqlStmt("one-group", "select count(*) as n, sum(o_totalprice) as t from orders where o_custkey < 50"),
	}
	src := testSource()
	src.opts.MorselRows = 0
	for _, i := range []int{0, 1, 2, 3, 4, 5, 0, 2, 4, 1, 3, 5} {
		src.stmts = append(src.stmts, stmts[i])
	}
	return &lattice{src: src, axes: []axis{workersAxis(2, 4), shardsAxis(0, 2), partitionsAxis(1, 2, 4, 8), recycledAxis.at(1), eventAxis(evPGO)},
		name: func(_ stmt, c cell) string { return fmt.Sprintf("workers%d-shards%d", c.opts.Workers, c.opts.Shards) }}
}
