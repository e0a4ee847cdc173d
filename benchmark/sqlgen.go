package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/catalog"
	"repro/internal/sqlparse"
)

// A seeded SQL generator over the TPC-H-shaped catalog's foreign-key
// graph: serve_mix's query population.

// fkEdge is one foreign key of the TPC-H-shaped catalog.
type fkEdge struct{ child, fk, parent, pk string }

var tpchEdges = []fkEdge{
	{"nation", "n_regionkey", "region", "r_regionkey"},
	{"supplier", "s_nationkey", "nation", "n_nationkey"},
	{"customer", "c_nationkey", "nation", "n_nationkey"},
	{"partsupp", "ps_partkey", "part", "p_partkey"},
	{"partsupp", "ps_suppkey", "supplier", "s_suppkey"},
	{"orders", "o_custkey", "customer", "c_custkey"},
	{"lineitem", "l_orderkey", "orders", "o_orderkey"},
	{"lineitem", "l_partkey", "part", "p_partkey"},
	{"lineitem", "l_suppkey", "supplier", "s_suppkey"},
}

// tpchAttrs lists each relation's plain attribute columns, the ones a
// selection predicate can range over.
var tpchAttrs = map[string][]string{
	"region":   {"r_name"},
	"nation":   {"n_name"},
	"supplier": {"s_acctbal"},
	"customer": {"c_mktsegment", "c_acctbal"},
	"part":     {"p_retailprice", "p_brand", "p_type", "p_size"},
	"partsupp": {"ps_supplycost"},
	"orders":   {"o_orderdate", "o_totalprice"},
	"lineitem": {"l_shipdate", "l_quantity", "l_extendedprice"},
}

// genQuery is one generated compile request.
type genQuery struct {
	sql  string
	res  int
	dims int
}

// anchorShare is the part of serve_mix's query pool drawn from a fixed
// stream rather than the seed's: mso_gmean is taken over these, so that it
// is the same number for every seed.
const anchorShare = 5

// anchorStream seeds the anchors' generator; any constant would do.
const anchorStream = 20140622

// serveMixSQL is serve_mix's pool of n pairwise distinct queries: the
// anchors first, then the seed's own.
func serveMixSQL(cat *catalog.Catalog, seed int64, n int) (pool []genQuery, anchors int, err error) {
	anchors = n / anchorShare
	seen := make(map[string]bool, n)
	pool, err = generateSQL(cat, newRNG(anchorStream, 3), anchors, seen)
	if err != nil {
		return nil, 0, err
	}
	own, err := generateSQL(cat, newRNG(seed, 3), n-anchors, seen)
	return append(pool, own...), anchors, err
}

// generateSQL draws n queries that are distinct cache entries from one
// another and from those in seen — the server's compile cache keys on the
// parsed query's canonical text (which omits selectivity constants) plus
// the resolution. Each is a connected set of 2–4 relations grown along
// random foreign keys, one or two selections, 2 or 3 predicates marked
// error-prone, and an explicit resolution sized so a cold compile costs a
// few milliseconds.
func generateSQL(cat *catalog.Catalog, r *rng, n int, seen map[string]bool) ([]genQuery, error) {
	out := make([]genQuery, 0, n)
	for attempts := 0; len(out) < n; attempts++ {
		if attempts > 200*n {
			return nil, fmt.Errorf("sql generator: only %d distinct queries after %d draws", len(out), attempts)
		}
		g := drawQuery(r)
		q, err := sqlparse.Parse("gen", cat, g.sql)
		if err != nil {
			return nil, fmt.Errorf("generated SQL does not parse: %w\n%s", err, g.sql)
		}
		key := q.String() + "|res=" + strconv.Itoa(g.res)
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, g)
	}
	return out, nil
}

func drawQuery(r *rng) genQuery {
	// Grow a connected relation set along foreign keys.
	first := tpchEdges[r.intn(len(tpchEdges))]
	rels := []string{first.child, first.parent}
	edges := []fkEdge{first}
	in := map[string]bool{first.child: true, first.parent: true}
	for want := 2 + r.intn(3); len(rels) < want; {
		var frontier []fkEdge
		for _, e := range tpchEdges {
			if in[e.child] != in[e.parent] {
				frontier = append(frontier, e)
			}
		}
		e := frontier[r.intn(len(frontier))]
		for _, rel := range []string{e.child, e.parent} {
			if !in[rel] {
				in[rel] = true
				rels = append(rels, rel)
			}
		}
		edges = append(edges, e)
	}

	var preds []string
	for s := 1 + r.intn(2); s > 0; s-- {
		rel := rels[r.intn(len(rels))]
		attrs := tpchAttrs[rel]
		op := "<"
		if r.intn(3) == 0 {
			op = ">="
		}
		sel := 0.01 + float64(r.intn(4900))/10000
		preds = append(preds, fmt.Sprintf("%s.%s %s sel(%s)", rel, attrs[r.intn(len(attrs))], op,
			strconv.FormatFloat(sel, 'g', -1, 64)))
	}
	for _, e := range edges {
		preds = append(preds, fmt.Sprintf("%s.%s = %s.%s", e.child, e.fk, e.parent, e.pk))
	}
	// Two selections may draw the same attribute; keep one of each.
	preds = dedupe(preds)

	dims := 2 + r.intn(2)
	if dims > len(preds) {
		dims = len(preds)
	}
	idx := make([]int, len(preds))
	for i := range idx {
		idx[i] = i
	}
	r.shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
	for _, i := range idx[:dims] {
		preds[i] += "?"
	}
	res := 8 + r.intn(7) // 64–196 optimizer calls in two dimensions
	if dims == 3 {
		res = 4 + r.intn(3) // 64–216 in three
	}
	target := "*"
	if r.intn(3) == 0 {
		target = "COUNT(*)"
	}
	return genQuery{
		sql:  fmt.Sprintf("SELECT %s FROM %s WHERE %s", target, strings.Join(rels, ", "), strings.Join(preds, " AND ")),
		res:  res,
		dims: dims,
	}
}

// dedupe drops later predicates over a column an earlier one already
// constrains (a predicate's first word is its left-hand column).
func dedupe(preds []string) []string {
	seen := make(map[string]bool, len(preds))
	out := preds[:0]
	for _, p := range preds {
		head, _, _ := strings.Cut(p, " ")
		if !seen[head] {
			seen[head] = true
			out = append(out, p)
		}
	}
	return out
}
