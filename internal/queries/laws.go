package queries

// FrontEndCase is one row of the front end's law table: a statement over
// the datagen schema, other spellings of it that must share its
// fingerprint (conjuncts permuted, BETWEEN swapped for its comparison
// pair, IN items reordered or repeated, redundant parentheses), and near
// misses (another operator, column or LIMIT) that must not. Every
// spelling plans without fallback and returns the reference executor's
// rows; sqlparse and engine tests run the table, FuzzNormalize seeds
// from it.
type FrontEndCase struct {
	SQL  string
	Same []string
	Diff []string
}

// FrontEndCases returns the law table: SQLSuite, the bench rotation's
// statement shapes with fixed constants, and the fingerprint test cases.
func FrontEndCases() []FrontEndCase {
	var cases []FrontEndCase
	for _, w := range SQLSuite() {
		cases = append(cases, FrontEndCase{SQL: w.SQL})
	}
	return append(cases, []FrontEndCase{
		{
			SQL: "select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity between 10 and 30",
			Same: []string{
				"select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity >= 10 and l_quantity <= 30",
				"select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity <= 30 and l_quantity >= 10",
				"select count(*) as n, sum(l_extendedprice) as s from lineitem where (l_quantity between 10 and 30)",
				"SELECT count(*) AS n, SUM(l_extendedprice) AS s FROM lineitem\nWHERE ((l_quantity >= 10) AND (l_quantity <= 30)); -- spelled loudly",
			},
			Diff: []string{
				"select count(*) as n, sum(l_extendedprice) as s from lineitem where l_quantity > 10 and l_quantity <= 30",
				"select count(*) as n, sum(l_extendedprice) as s from lineitem where l_tax between 10 and 30",
			},
		},
		{
			SQL: "select l_returnflag, count(*) as n from lineitem where l_quantity in (3, 21, 50) group by l_returnflag order by l_returnflag",
			Same: []string{
				"select l_returnflag, count(*) as n from lineitem where l_quantity in (50, 3, 21) group by l_returnflag order by l_returnflag",
				"select l_returnflag, count(*) as n from lineitem where l_quantity in (3, 21, 3, 50, 21) group by l_returnflag order by l_returnflag",
				"select l_returnflag, count(*) as n from lineitem where l_quantity = 3 or l_quantity = 21 or l_quantity = 50 group by l_returnflag order by l_returnflag",
				"select l_returnflag, count(*) as n from lineitem where (l_quantity in (3, 21, 50)) group by l_returnflag order by l_returnflag asc",
			},
			Diff: []string{
				"select l_returnflag, count(*) as n from lineitem where l_quantity in (3, 21) group by l_returnflag order by l_returnflag",
				"select l_returnflag, count(*) as n from lineitem where l_tax in (3, 21, 50) group by l_returnflag order by l_returnflag",
				"select l_returnflag, count(*) as n from lineitem where l_quantity in (3, 21, 50) group by l_returnflag order by l_returnflag desc",
			},
		},
		{
			SQL: "select count(*) as n from products where category in ('Chip', 'Board', 'Chip')",
			Same: []string{
				"select count(*) as n from products where category in ('Chip', 'Board')",
				"select count(*) as n from products where category = 'Board' or category = 'Chip'",
			},
			Diff: []string{
				"select count(*) as n from products where category = 'Chip'",
				"select count(*) as n from products where name in ('Chip', 'Board')",
			},
		},
		{
			// PR 10's wrong-rows bug: the range binds to the whole sum.
			SQL: "select count(*) as n from lineitem where l_quantity + l_tax between 10 and 40",
			Same: []string{
				"select count(*) as n from lineitem where l_quantity + l_tax >= 10 and l_quantity + l_tax <= 40",
				"select count(*) as n from lineitem where (l_quantity + l_tax) between 10 and 40",
			},
			Diff: []string{
				"select count(*) as n from lineitem where l_quantity + l_tax >= 10 and l_tax <= 40",
				"select count(*) as n from lineitem where l_quantity - l_tax between 10 and 40",
			},
		},
		{
			SQL: "select count(*) as n from lineitem where l_quantity % 10 in (3, 7)",
			Same: []string{
				"select count(*) as n from lineitem where l_quantity % 10 = 3 or l_quantity % 10 = 7",
				"select count(*) as n from lineitem where (l_quantity % 10) in (7, 3, 7)",
			},
			Diff: []string{
				"select count(*) as n from lineitem where l_quantity % 10 in (3)",
				"select count(*) as n from lineitem where l_quantity / 10 in (3, 7)",
			},
		},
		{
			SQL:  "select count(*) as n from lineitem where l_quantity <> 20 or l_tax = 0",
			Same: []string{"select count(*) as n from lineitem where (l_quantity != 20 or l_tax = 0)"},
			Diff: []string{
				"select count(*) as n from lineitem where l_quantity <> 20 and l_tax = 0",
				"select count(*) as n from lineitem where l_quantity = 20 or l_tax = 0",
			},
		},
		{
			SQL:  "select c_mktsegment, sum(o_totalprice) as t from orders, customer where c_custkey = o_custkey and o_totalprice > 50000 group by c_mktsegment order by c_mktsegment",
			Same: []string{"select c_mktsegment, sum(o_totalprice) as t from orders, customer where o_totalprice > 50000 and c_custkey = o_custkey group by c_mktsegment order by c_mktsegment"},
			Diff: []string{"select c_mktsegment, sum(o_totalprice) as t from orders, customer where c_custkey = o_custkey and o_totalprice >= 50000 group by c_mktsegment order by c_mktsegment"},
		},
		{
			SQL: "select c_nationkey, sum(l_extendedprice) as rev from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey and o_orderdate >= '1995-01-07' group by c_nationkey order by c_nationkey",
			Same: []string{
				"select c_nationkey, sum(l_extendedprice) as rev from customer, orders, lineitem where o_orderdate >= '1995-01-07' and l_orderkey = o_orderkey and c_custkey = o_custkey group by c_nationkey order by c_nationkey",
				"select c_nationkey, sum(l_extendedprice) as rev from customer, orders, lineitem where l_orderkey = o_orderkey and (o_orderdate >= '1995-01-07' and c_custkey = o_custkey) group by c_nationkey order by c_nationkey",
			},
			Diff: []string{"select c_nationkey, sum(l_extendedprice) as rev from customer, orders, lineitem where c_custkey = o_custkey and l_orderkey = o_orderkey and o_orderdate > '1995-01-07' group by c_nationkey order by c_nationkey"},
		},
		{
			SQL:  "select o_orderkey, o_totalprice from orders where o_totalprice > 50000 order by o_totalprice desc, o_orderkey limit 20",
			Same: []string{"select o_orderkey, o_totalprice from orders where (o_totalprice > 50000) order by o_totalprice desc, o_orderkey asc limit 20;"},
			Diff: []string{
				"select o_orderkey, o_totalprice from orders where o_totalprice > 50000 order by o_totalprice desc, o_orderkey limit 21",
				"select o_orderkey, o_totalprice from orders where o_totalprice > 50000 order by o_totalprice, o_orderkey limit 20",
			},
		},
		{SQL: "select p_brand, count(*) as n from partsupp, part where p_partkey = ps_partkey and p_size > 15 group by p_brand order by p_brand"},
		{
			SQL:  "select s.id, sum(s.price) as rev from sales s, products p where s.id = p.id and p.category = 'Chip' group by s.id order by s.id",
			Same: []string{"select s.id, sum(s.price) as rev from sales as s, products as p where p.category = 'Chip' and s.id = p.id group by s.id order by s.id"},
			Diff: []string{"select s.id, sum(s.price) as rev from sales s, products p where s.id = p.id and p.name = 'Chip' group by s.id order by s.id"},
		},
		{SQL: "select l_orderkey, min(l_quantity) as lo, max(l_quantity) as hi from lineitem where l_discount < 5 group by l_orderkey order by l_orderkey"},
		{
			SQL:  "select count(*) as n from orders where o_orderdate between '1993-09-19' and '1996-09-09'",
			Same: []string{"select count(*) as n from orders where o_orderdate <= '1996-09-09' and o_orderdate >= '1993-09-19'"},
			Diff: []string{"select count(*) as n from orders where o_orderdate > '1993-09-19' and o_orderdate <= '1996-09-09'"},
		},
		{SQL: "select s_nationkey, sum(s_acctbal) as b from supplier where s_acctbal > 2200 group by s_nationkey order by s_nationkey"},
		{SQL: "select s_nationkey, count(*) as n from lineitem, supplier where l_suppkey = s_suppkey and l_quantity < 25 group by s_nationkey order by s_nationkey"},
		{
			SQL: "select count(*) as n from lineitem where (l_tax = 1 or l_tax = 5) and l_quantity < 30",
			Same: []string{
				"select count(*) as n from lineitem where l_quantity < 30 and (l_tax = 1 or l_tax = 5)",
				"select count(*) as n from lineitem where l_tax in (1, 5) and l_quantity < 30",
				"select count(*) as n from lineitem where l_quantity < 30 and l_tax in (5, 1, 5)",
			},
			Diff: []string{
				"select count(*) as n from lineitem where l_tax = 1 or l_tax = 5 and l_quantity < 30",
				"select count(*) as n from lineitem where (l_tax = 1 or l_tax = 5) and l_quantity <= 30",
			},
		},
		{
			SQL: "select l_orderkey, sum(l_quantity) as qty from lineitem where l_quantity < 30 group by l_orderkey order by 2 desc, 1 limit 20",
			Diff: []string{
				"select l_orderkey, sum(l_quantity) as qty from lineitem where l_quantity < 30 group by l_orderkey order by 1 desc, 2 limit 20",
				"select l_orderkey, sum(l_quantity) as qty from lineitem where l_quantity < 30 group by l_orderkey order by 2 desc, 1 limit 19",
			},
		},
		{
			SQL:  "select o.o_custkey, max(o.o_totalprice) as top from orders o where o.o_custkey <> 7 group by o.o_custkey order by o.o_custkey",
			Same: []string{"select o.o_custkey, max(o.o_totalprice) as top from orders o where o.o_custkey != 7 group by o.o_custkey order by o.o_custkey"},
			Diff: []string{"select o.o_custkey, max(o.o_totalprice) as top from orders o where o.o_orderkey <> 7 group by o.o_custkey order by o.o_custkey"},
		},
		{
			SQL:  "select ps_suppkey, sum(ps_supplycost * ps_availqty) as v from partsupp where ps_availqty > 5000 group by ps_suppkey order by ps_suppkey",
			Same: []string{"select ps_suppkey, sum((ps_supplycost * (ps_availqty))) as v from partsupp where ps_availqty > 5000 group by ps_suppkey order by ps_suppkey"},
			Diff: []string{"select ps_suppkey, sum(ps_supplycost + ps_availqty) as v from partsupp where ps_availqty > 5000 group by ps_suppkey order by ps_suppkey"},
		},
		{
			SQL:  "select id, sum(price) as rev, count(*) as n from sales where id between 3 and 9 group by id order by id",
			Same: []string{"select id, sum(price) as rev, count(*) as n from sales where id >= 3 and id <= 9 group by id order by id"},
			Diff: []string{"select id, sum(price) as rev from sales where id between 3 and 9 group by id order by id"},
		},
		{SQL: "select o_custkey, sum(o_totalprice) as t from orders where o_orderkey >= 17 group by o_custkey order by o_custkey"},
		{
			SQL: "select count(*) from lineitem where l_quantity < 24 and l_tax > 2 and l_returnflag = 'R'",
			Same: []string{
				"select count(*) from lineitem where l_returnflag = 'R' and l_quantity < 24 and l_tax > 2",
				"select count(*) from lineitem where l_tax > 2 and (l_returnflag = 'R' and l_quantity < 24)",
			},
			Diff: []string{"select count(*) from lineitem where l_quantity > 24 and l_tax > 2 and l_returnflag = 'R'"},
		},
		{
			SQL:  "select l_orderkey, sum(l_extendedprice * (100 - l_discount)) from lineitem where l_quantity < 100 and l_tax < 30 group by l_orderkey",
			Same: []string{"select l_orderkey, sum((l_extendedprice) * ((100 - l_discount))) from lineitem where l_tax < 30 and l_quantity < 100 group by l_orderkey"},
			Diff: []string{"select l_orderkey, sum(l_extendedprice * 100 - l_discount) from lineitem where l_quantity < 100 and l_tax < 30 group by l_orderkey"},
		},
		{
			SQL: "select count(*) as n from lineitem where l_quantity > -5 and l_tax < 9",
			Same: []string{
				"select count(*) as n from lineitem where l_quantity > 0 - 5 and l_tax < 9",
				"select count(*) as n from lineitem where l_tax < 9 and l_quantity > -(5)",
			},
			Diff: []string{"select count(*) as n from lineitem where l_quantity > 5 and l_tax < 9"},
		},
		{SQL: "select count(*) as n from products where category = 'it''s'"},
		{
			SQL:  "select count(*) as n from lineitem where l_quantity < 10 or l_quantity between 20 and 30 and l_tax = 1",
			Same: []string{"select count(*) as n from lineitem where l_quantity < 10 or (l_quantity >= 20 and l_quantity <= 30) and l_tax = 1"},
			Diff: []string{"select count(*) as n from lineitem where (l_quantity < 10 or l_quantity between 20 and 30) and l_tax = 1"},
		},
	}...)
}
