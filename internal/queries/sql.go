package queries

import "repro/internal/plan"

// Service-path workloads. Suite's callers hand Workload.Query (and its
// hints) straight to the planner; these statements' callers send the text
// through the full service front door: lexing, normalization,
// fingerprinting, the compiled-query cache and bound-parameter encoding.
// They deliberately cover the fingerprint grammar's corners — numeric
// literals (deduplicated), string and date literals (encoded per compared
// column), ORDER BY/LIMIT tails (never lifted), and aliases.

// SQLWorkload is Workload: the two suites differ in the path their
// callers take, not in what a workload is.
type SQLWorkload = Workload

var sqlSuite = []row{
	{"scan-filter", "filtered scan with a two-column ORDER BY tail",
		"select l_orderkey, l_quantity from lineitem " +
			"where l_quantity < 4 order by l_orderkey, l_quantity limit 50", plan.Hints{}},
	{"agg-group", "single-table aggregation with a numeric literal",
		"select l_orderkey, sum(l_quantity), sum(l_extendedprice) from lineitem " +
			"where l_quantity < 24 group by l_orderkey", plan.Hints{}},
	{"date-filter", "date literal encoded through the compared column",
		"select l_orderkey, count(*) from lineitem " +
			"where l_shipdate < '1995-06-17' group by l_orderkey", plan.Hints{}},
	{"string-eq", "dictionary-encoded string literal, global aggregate",
		"select count(*), sum(l_extendedprice) from lineitem where l_returnflag = 'R'", plan.Hints{}},
	{"join-groupjoin", "join + group-by (fuses to groupjoin), date-filtered",
		"select o_orderkey, sum(l_extendedprice) from lineitem, orders " +
			"where o_orderkey = l_orderkey and o_orderdate < '1995-04-01' " +
			"group by o_orderkey", plan.Hints{}},
	{"join-opaque", "join + group-by behind opaque arithmetic filters (misestimated cardinality)",
		"select l_orderkey, sum(l_extendedprice) from lineitem, orders " +
			"where o_orderkey = l_orderkey and l_quantity*1 < 45 and l_discount*1 < 45 " +
			"group by l_orderkey", plan.Hints{}},
	{"join-3way", "three-way join with a selective dimension filter",
		"select l_orderkey, sum(l_extendedprice) from lineitem, orders, part " +
			"where o_orderkey = l_orderkey and p_partkey = l_partkey and p_size < 10 " +
			"group by l_orderkey", plan.Hints{}},
	{"topk", "aliased aggregate with ORDER BY alias DESC and LIMIT",
		"select l_orderkey, sum(l_quantity) as qty from lineitem " +
			"group by l_orderkey order by qty desc limit 10", plan.Hints{}},
	{"expr-literals", "several numeric literals, inside filters and aggregate args",
		"select l_orderkey, sum(l_extendedprice * (100 - l_discount)) from lineitem " +
			"where l_quantity < 30 group by l_orderkey", plan.Hints{}},
}

// SQLSuite returns the service-path workload over the datagen schema.
func SQLSuite() []SQLWorkload { return workloads(sqlSuite) }

// SQLByName returns the named SQL workload, or false.
func SQLByName(name string) (SQLWorkload, bool) { return byName(sqlSuite, name) }
