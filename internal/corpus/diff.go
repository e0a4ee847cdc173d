package corpus

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/floats"
)

// DriftClass classifies one query's divergence from its golden baseline.
// When several classes apply, Diff reports the most severe one per the
// ordering below (meta worst, cost-only mildest).
type DriftClass string

// Drift classes, most to least severe. lost-query/new-query mean the two
// corpora disagree on which queries exist (a manifest/generator change);
// meta means the query itself changed (SQL, catalog, geometry); the rest
// are planning-stack drift on an identical query.
const (
	// ClassLostQuery: the golden corpus has the query, the candidate lacks it.
	ClassLostQuery DriftClass = "lost-query"
	// ClassNewQuery: the candidate has a query the golden corpus lacks.
	ClassNewQuery DriftClass = "new-query"
	// ClassMeta: the generated workload itself differs (SQL text, catalog
	// spec, geometry, dims, model, or resolution) — generator drift, not
	// planner drift.
	ClassMeta DriftClass = "meta"
	// ClassContourCount: the ladder gained or lost a contour.
	ClassContourCount DriftClass = "contour-count"
	// ClassPlanShape: some contour's plan-fingerprint set changed, or the
	// POSP/bouquet cardinalities moved.
	ClassPlanShape DriftClass = "plan-shape"
	// ClassRunProfile: a sampled run's driver step profile (steps, execs,
	// aborts, spills, learns) or the number of sampled runs changed, with
	// the compiled plan sets intact — the run-time policy moved.
	ClassRunProfile DriftClass = "run-profile"
	// ClassMSORegression: the MSO bound worsened (plan sets intact).
	ClassMSORegression DriftClass = "mso-regression"
	// ClassMSOImprovement: the MSO bound improved (plan sets intact).
	ClassMSOImprovement DriftClass = "mso-improvement"
	// ClassCostOnly: only costs moved — contour budgets, cost bounds, run
	// costs — with plan shapes and MSO intact.
	ClassCostOnly DriftClass = "cost-only"
)

// relTol is the relative tolerance for float comparisons in the differ:
// loose enough to absorb non-semantic float formatting, tight enough that
// any real cost-model change trips it.
const relTol = 1e-9

// Drift is one classified divergence.
type Drift struct {
	// ID is the query identifier.
	ID string
	// Class is the most severe drift class observed for the query.
	Class DriftClass
	// Detail is a one-line human-readable explanation.
	Detail string
}

// String renders the drift in the report-line format the CI problem
// matcher parses: `<id>: [<class>] <detail>`.
func (d Drift) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.ID, d.Class, d.Detail)
}

// Diff semantically compares a candidate corpus against the golden one and
// returns one Drift per diverging query, in query order. Identical corpora
// yield nil.
func Diff(golden, candidate []Baseline) []Drift {
	goldByID := make(map[string]Baseline, len(golden))
	for _, b := range golden {
		goldByID[b.ID] = b
	}
	candByID := make(map[string]Baseline, len(candidate))
	for _, b := range candidate {
		candByID[b.ID] = b
	}

	var drifts []Drift
	for _, g := range golden {
		c, ok := candByID[g.ID]
		if !ok {
			drifts = append(drifts, Drift{ID: g.ID, Class: ClassLostQuery,
				Detail: "query present in golden corpus but not regenerated"})
			continue
		}
		if d, ok := diffOne(g, c); ok {
			drifts = append(drifts, d)
		}
	}
	for _, c := range candidate {
		if _, ok := goldByID[c.ID]; !ok {
			drifts = append(drifts, Drift{ID: c.ID, Class: ClassNewQuery,
				Detail: "query regenerated but absent from golden corpus"})
		}
	}
	sort.Slice(drifts, func(i, j int) bool { return drifts[i].ID < drifts[j].ID })
	return drifts
}

// diffOne compares one query's golden and candidate baselines, returning
// the most severe applicable drift.
func diffOne(g, c Baseline) (Drift, bool) {
	if d := diffMeta(g, c); d != "" {
		return Drift{ID: g.ID, Class: ClassMeta, Detail: d}, true
	}
	if len(g.Contours) != len(c.Contours) {
		return Drift{ID: g.ID, Class: ClassContourCount,
			Detail: fmt.Sprintf("ladder has %d contours, golden has %d", len(c.Contours), len(g.Contours))}, true
	}
	if d := diffPlanShape(g, c); d != "" {
		return Drift{ID: g.ID, Class: ClassPlanShape, Detail: d}, true
	}
	if d := diffRunProfile(g, c); d != "" {
		return Drift{ID: g.ID, Class: ClassRunProfile, Detail: d}, true
	}
	if !floats.EqWithin(g.MSO, c.MSO, relTol, 0) {
		class := ClassMSORegression
		verb := "worsened"
		if c.MSO < g.MSO {
			class = ClassMSOImprovement
			verb = "improved"
		}
		return Drift{ID: g.ID, Class: class,
			Detail: fmt.Sprintf("MSO bound %s: golden %.6g, now %.6g", verb, g.MSO, c.MSO)}, true
	}
	if d := diffCosts(g, c); d != "" {
		return Drift{ID: g.ID, Class: ClassCostOnly, Detail: d}, true
	}
	return Drift{}, false
}

// diffMeta reports the first workload-identity divergence, or "".
func diffMeta(g, c Baseline) string {
	switch {
	case g.SQL != c.SQL:
		return "generated SQL text differs"
	case g.CatalogSpec != c.CatalogSpec:
		return fmt.Sprintf("catalog differs: golden %q, now %q", g.CatalogSpec, c.CatalogSpec)
	case g.Geometry != c.Geometry:
		return fmt.Sprintf("join geometry differs: golden %s, now %s", g.Geometry, c.Geometry)
	case g.Dims != c.Dims:
		return fmt.Sprintf("dimensionality differs: golden %d, now %d", g.Dims, c.Dims)
	case g.Model != c.Model:
		return fmt.Sprintf("cost model differs: golden %s, now %s", g.Model, c.Model)
	case g.Res != c.Res:
		return fmt.Sprintf("grid resolution differs: golden %d, now %d", g.Res, c.Res)
	}
	return ""
}

// diffPlanShape reports the first plan-structure divergence, or "".
func diffPlanShape(g, c Baseline) string {
	if g.POSPPlans != c.POSPPlans {
		return fmt.Sprintf("POSP has %d plans, golden has %d", c.POSPPlans, g.POSPPlans)
	}
	if g.BouquetSize != c.BouquetSize {
		return fmt.Sprintf("bouquet has %d plans, golden has %d", c.BouquetSize, g.BouquetSize)
	}
	for i := range g.Contours {
		gp, cp := g.Contours[i].Plans, c.Contours[i].Plans
		if !equalStrings(gp, cp) {
			return fmt.Sprintf("contour %d plan set changed: golden {%s}, now {%s}",
				g.Contours[i].K, abbrevSet(gp), abbrevSet(cp))
		}
	}
	return ""
}

// diffRunProfile reports the first sampled-run step-profile divergence, or
// "".
func diffRunProfile(g, c Baseline) string {
	for i := range g.Runs {
		if i >= len(c.Runs) {
			return fmt.Sprintf("run count changed: golden %d, now %d", len(g.Runs), len(c.Runs))
		}
		gr, cr := g.Runs[i], c.Runs[i]
		if gr.Steps != cr.Steps || gr.Execs != cr.Execs || gr.Aborts != cr.Aborts ||
			gr.Spills != cr.Spills || gr.Learns != cr.Learns {
			return fmt.Sprintf("%s driver step profile at qa=%v changed: golden steps=%d execs=%d aborts=%d spills=%d learns=%d, now steps=%d execs=%d aborts=%d spills=%d learns=%d",
				gr.Driver, gr.QA, gr.Steps, gr.Execs, gr.Aborts, gr.Spills, gr.Learns,
				cr.Steps, cr.Execs, cr.Aborts, cr.Spills, cr.Learns)
		}
	}
	if len(c.Runs) > len(g.Runs) {
		return fmt.Sprintf("run count changed: golden %d, now %d", len(g.Runs), len(c.Runs))
	}
	return ""
}

// diffCosts reports the first pure-cost divergence, or "".
func diffCosts(g, c Baseline) string {
	eq := func(a, b float64) bool { return floats.EqWithin(a, b, relTol, 0) }
	if !eq(g.CostMin, c.CostMin) || !eq(g.CostMax, c.CostMax) {
		return fmt.Sprintf("cost bounds moved: golden [%.6g, %.6g], now [%.6g, %.6g]",
			g.CostMin, g.CostMax, c.CostMin, c.CostMax)
	}
	for i := range g.Contours {
		if !eq(g.Contours[i].Budget, c.Contours[i].Budget) {
			return fmt.Sprintf("contour %d budget moved: golden %.6g, now %.6g",
				g.Contours[i].K, g.Contours[i].Budget, c.Contours[i].Budget)
		}
	}
	if !eq(g.TheoreticalMSO, c.TheoreticalMSO) {
		return fmt.Sprintf("theoretical MSO moved: golden %.6g, now %.6g", g.TheoreticalMSO, c.TheoreticalMSO)
	}
	if !eq(g.ASO, c.ASO) {
		return fmt.Sprintf("sampled ASO moved: golden %.6g, now %.6g", g.ASO, c.ASO)
	}
	for i := range g.Runs {
		gr, cr := g.Runs[i], c.Runs[i]
		if !eq(gr.TotalCost, cr.TotalCost) || !eq(gr.SubOpt, cr.SubOpt) ||
			!eq(gr.UsefulCost, cr.UsefulCost) || !eq(gr.WastedCost, cr.WastedCost) {
			return fmt.Sprintf("%s driver run cost at qa=%v moved: golden total=%.6g subopt=%.6g, now total=%.6g subopt=%.6g",
				gr.Driver, gr.QA, gr.TotalCost, gr.SubOpt, cr.TotalCost, cr.SubOpt)
		}
	}
	return ""
}

// equalStrings reports whether two string slices are element-wise equal.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// abbrevSet renders a fingerprint set compactly for report lines: up to
// three entries, each truncated to 40 runes.
func abbrevSet(fps []string) string {
	var parts []string
	for i, fp := range fps {
		if i == 3 {
			parts = append(parts, fmt.Sprintf("… +%d more", len(fps)-3))
			break
		}
		if len(fp) > 40 {
			fp = fp[:40] + "…"
		}
		parts = append(parts, fp)
	}
	return strings.Join(parts, ", ")
}

// Report renders drifts as matcher-parseable lines `<dir>/<shard>: <id>:
// [<class>] <detail>`, attributing each query to its shard file via its
// numeric index so CI annotations anchor on the golden file. dir is the
// corpus directory as known to the repository (slash-separated); queries
// whose IDs don't parse fall back to shard "?".
func Report(dir string, drifts []Drift) string {
	var sb strings.Builder
	for _, d := range drifts {
		shard := "?"
		var n int
		if _, err := fmt.Sscanf(d.ID, "q%d", &n); err == nil {
			shard = ShardFor(n)
		}
		if dir != "" {
			shard = strings.TrimSuffix(dir, "/") + "/" + shard
		}
		fmt.Fprintf(&sb, "%s: %s\n", shard, d.String())
	}
	return sb.String()
}
