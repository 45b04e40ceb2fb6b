// Package queries defines the evaluation workload: every query the paper
// shows (the introduction example of Fig. 3a, the domain-expert query of
// Fig. 9a, the optimizer-study plans of Fig. 10, the TPC-H Q16 analogue of
// the overhead experiment) plus a TPC-H-inspired suite standing in for
// "all 22 TPC-H queries" in the attribution experiment (Table 2) — scoped
// to the engine's supported features (one- or two-key grouping, equi-joins).
//
// Every workload is the SQL statement its author would write, read by the
// one parser; what has no SQL spelling (plan.Hints) rides beside the text.
// Building a plan.Query by hand stays supported (examples/custom_dataflow
// shows it), but nothing here does.
package queries

import (
	"repro/internal/plan"
	"repro/internal/sqlparse"
)

// Workload is a named statement: its text, and that text parsed.
type Workload struct {
	Name        string
	Description string
	SQL         string
	// Query is SQL parsed, carrying the workload's hints, fresh per call
	// (planning writes into a query's parameters).
	Query *plan.Query
}

// row is one line of a workload table.
type row struct {
	name, desc, sql string
	hints           plan.Hints
}

// bug reports a violated invariant of this package (lint/nopanic's one
// exception): the tables are part of the program, so a statement the
// parser rejects, or a paper query missing from the suite, is a bug here.
func bug(msg string) { panic("queries: " + msg) }

func (r row) workload() Workload {
	query, err := sqlparse.Parse(r.sql)
	if err != nil {
		bug("workload " + r.name + ": " + err.Error())
	}
	query.Hints = r.hints
	return Workload{Name: r.name, Description: r.desc, SQL: r.sql, Query: query}
}

func workloads(rows []row) []Workload {
	ws := make([]Workload, len(rows))
	for i, r := range rows {
		ws[i] = r.workload()
	}
	return ws
}

func byName(rows []row, name string) (Workload, bool) {
	for _, r := range rows {
		if r.name == name {
			return r.workload(), true
		}
	}
	return Workload{}, false
}

const (
	introSQL = "select s.id, avg(s.price / s.vat_factor / s.prod_costs) as avg_margin from sales s, products p " +
		"where s.id = p.id and p.category = 'Chip' group by s.id"
	fig10SQL = "select sum(ps_supplycost * l_quantity) as total_cost from lineitem, orders, partsupp " +
		"where o_orderkey = l_orderkey and ps_partkey = l_partkey and o_orderdate < '1995-06-17'"
)

// suite is the full workload of the attribution and register-reservation
// experiments (the paper runs all TPC-H queries). The first six rows are
// the queries the paper itself prints: intro-nogj turns the fused
// group-join off so the plain join + group-by pipeline of Listing 1 is
// generated; fig10-opt and fig10-alt are one statement under the original
// (Fig. 10a) and the alternative, faster (Fig. 10b) probe order.
var suite = []row{
	{"intro-nogj", "Fig. 3a: avg margin per product sold as 'Chip'", introSQL, plan.Hints{NoGroupJoin: true}},
	{"intro", "Fig. 3a: avg margin per product sold as 'Chip'", introSQL, plan.Hints{}},
	{"fig9", "Fig. 9a: avg extended price per order before 1995-04-01",
		"select l_orderkey, avg(l_extendedprice) as avg_price from lineitem, orders " +
			"where o_orderdate < '1995-04-01' and o_orderkey = l_orderkey group by l_orderkey",
		plan.Hints{NoGroupJoin: true}},
	{"fig10-opt", "Fig. 10: three-way join, two probe orders", fig10SQL,
		plan.Hints{ProbeBase: "lineitem", ProbeOrder: []string{"partsupp", "orders"}}},
	{"fig10-alt", "Fig. 10: three-way join, two probe orders", fig10SQL,
		plan.Hints{ProbeBase: "lineitem", ProbeOrder: []string{"orders", "partsupp"}}},
	{"q16", "TPC-H Q16 analogue: supplier count per brand",
		"select p_brand, count(*) as supplier_cnt from partsupp, part " +
			"where p_partkey = ps_partkey and p_size > 15 group by p_brand order by p_brand", plan.Hints{}},

	{"q1", "TPC-H Q1 analogue: pricing summary per returnflag/linestatus",
		"select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_price, " +
			"avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price, count(*) as count_order " +
			"from lineitem where l_shipdate <= '1998-09-02' " +
			"group by l_returnflag, l_linestatus order by l_returnflag, l_linestatus", plan.Hints{}},
	{"q3", "TPC-H Q3 analogue: revenue per order for a market segment",
		"select l_orderkey, sum(l_extendedprice) as revenue from customer, orders, lineitem " +
			"where c_mktsegment = 'BUILDING' and c_custkey = o_custkey and l_orderkey = o_orderkey " +
			"and o_orderdate < '1995-03-15' group by l_orderkey", plan.Hints{}},
	{"q5", "TPC-H Q5 analogue: revenue per supplier nation",
		"select s_nationkey, sum(l_extendedprice) as revenue from customer, orders, lineitem, supplier " +
			"where c_custkey = o_custkey and l_orderkey = o_orderkey and l_suppkey = s_suppkey " +
			"and o_orderdate >= '1994-01-01' group by s_nationkey", plan.Hints{ProbeBase: "lineitem"}},
	{"q6", "TPC-H Q6 analogue: forecast revenue change",
		"select sum(l_extendedprice * l_discount) as revenue from lineitem " +
			"where l_shipdate >= '1994-01-01' and l_shipdate < '1995-01-01' " +
			"and l_discount >= 5 and l_discount <= 7 and l_quantity < 24", plan.Hints{}},
	{"q10", "TPC-H Q10 analogue: revenue per customer",
		"select o_custkey, sum(l_extendedprice) as revenue from customer, orders, lineitem " +
			"where c_custkey = o_custkey and l_orderkey = o_orderkey and o_orderdate >= '1993-10-01' " +
			"group by o_custkey", plan.Hints{}},
	{"q12", "TPC-H Q12 analogue: line counts per order in a ship window",
		"select o_orderkey, count(*) as line_count from orders, lineitem " +
			"where l_orderkey = o_orderkey and l_shipdate >= '1994-01-01' and l_shipdate < '1995-01-01' " +
			"group by o_orderkey", plan.Hints{}},
	{"q14", "TPC-H Q14 analogue: revenue of large parts",
		"select sum(l_extendedprice) as revenue, count(*) as lines from lineitem, part " +
			"where l_partkey = p_partkey and l_shipdate >= '1995-09-01' and l_shipdate < '1995-10-01'", plan.Hints{}},
	{"q18", "TPC-H Q18 analogue: total quantity per order",
		"select l_orderkey, sum(l_quantity) as total_qty, max(l_quantity) as max_qty, min(l_quantity) as min_qty " +
			"from lineitem group by l_orderkey", plan.Hints{}},
	{"q19", "TPC-H Q19 analogue: discounted revenue of small shipments",
		"select sum(l_extendedprice) as revenue from lineitem, part " +
			"where l_partkey = p_partkey and p_size < 10 and l_quantity < 12", plan.Hints{}},
	{"q7", "TPC-H Q7 analogue: shipping volume per supplier nation",
		"select s_nationkey, sum(l_extendedprice) as volume from supplier, lineitem, orders " +
			"where s_suppkey = l_suppkey and o_orderkey = l_orderkey " +
			"and l_shipdate >= '1995-01-01' and l_shipdate <= '1996-12-31' group by s_nationkey",
		plan.Hints{ProbeBase: "lineitem"}},
	{"q9", "TPC-H Q9 analogue: discounted profit per brand",
		"select p_brand, sum(l_extendedprice * (100 - l_discount)) as profit from part, lineitem " +
			"where p_partkey = l_partkey group by p_brand", plan.Hints{}},
	{"q11", "TPC-H Q11 analogue: stock value per part",
		"select ps_partkey, sum(ps_supplycost * ps_availqty) as value from partsupp, supplier " +
			"where ps_suppkey = s_suppkey and s_acctbal >= 0 group by ps_partkey", plan.Hints{ProbeBase: "partsupp"}},
	{"q13", "TPC-H Q13 analogue: order count per customer",
		"select o_custkey, count(*) as orders from customer, orders " +
			"where c_custkey = o_custkey group by o_custkey", plan.Hints{ProbeBase: "orders"}},
	{"q15", "TPC-H Q15 analogue: quarterly revenue per supplier",
		"select l_suppkey, sum(l_extendedprice) as revenue from lineitem " +
			"where l_shipdate >= '1996-01-01' and l_shipdate < '1996-04-01' " +
			"group by l_suppkey order by sum(l_extendedprice) desc limit 10", plan.Hints{}},
	{"q17", "TPC-H Q17 analogue: small-order revenue for one category",
		"select avg(l_extendedprice) as avg_revenue, count(*) as lines from part, lineitem " +
			"where p_partkey = l_partkey and p_category = 'Board' and l_quantity < 5", plan.Hints{}},
	{"topk", "top orders by total price (scan + host-side sort)",
		"select o_orderkey, o_orderdate, o_totalprice from orders " +
			"where o_totalprice > 400000 order by o_totalprice desc limit 25", plan.Hints{}},
}

// Suite returns the full workload, freshly parsed.
func Suite() []Workload { return workloads(suite) }

// ByName finds a workload in the suite.
func ByName(name string) (Workload, bool) { return byName(suite, name) }

func named(name string) Workload {
	w, ok := ByName(name)
	if !ok {
		bug("no workload " + name)
	}
	return w
}

// Intro is the paper's Fig. 3a query, with or without the fused group-join.
func Intro(noGroupJoin bool) Workload {
	if noGroupJoin {
		return named("intro-nogj")
	}
	return named("intro")
}

// Fig9 is the domain-expert use case (§6.1).
func Fig9() Workload { return named("fig9") }

// Fig10 is the optimizer use case (§6.1): a three-way join of lineitem
// with orders (date-filtered) and partsupp, aggregated globally. alt
// selects the alternative probe order of Fig. 10b.
func Fig10(alt bool) Workload {
	if alt {
		return named("fig10-alt")
	}
	return named("fig10-opt")
}

// Q16 approximates TPC-H Q16 (the overhead experiment's workload, §6.2):
// brands of sizeable parts counted across suppliers.
func Q16() Workload { return named("q16") }
