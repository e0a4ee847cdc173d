package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/server"
)

func smokeConfig(seed int64) config {
	return config{seed: seed, seconds: 1, clients: 2, smoke: true}
}

// serveMixInputs sets a smoke-sized serve_mix up and renders everything
// it generates: the SQL set, then one round's request schedule.
func serveMixInputs(t *testing.T, seed int64) (sql, schedule string) {
	t.Helper()
	w := &serveMix{cfg: smokeConfig(seed)}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	var sb strings.Builder
	for _, rq := range w.resident {
		fmt.Fprintf(&sb, "%s res=%d\n", rq.g.sql, rq.g.res)
	}
	for _, g := range w.spare {
		fmt.Fprintf(&sb, "%s res=%d\n", g.sql, g.res)
	}
	var sched bytes.Buffer
	for _, r := range w.schedule(newPass(w.cfg, nil), 400) {
		fmt.Fprintf(&sched, "%d %s %s\n", r.kind, r.path, r.body)
	}
	return sb.String(), sched.String()
}

func TestEqualSeedsGiveIdenticalInputs(t *testing.T) {
	sqlA, schedA := serveMixInputs(t, 7)
	sqlB, schedB := serveMixInputs(t, 7)
	if sqlA != sqlB {
		t.Error("the same seed generated two different SQL sets")
	}
	if schedA != schedB {
		t.Error("the same seed generated two different request schedules")
	}
	sqlC, schedC := serveMixInputs(t, 8)
	if sqlA == sqlC {
		t.Error("seeds 7 and 8 generated the same SQL set")
	}
	if schedA == schedC {
		t.Error("seeds 7 and 8 generated the same request schedule")
	}
	// The anchors lead the pool and are the same for every seed.
	if firstA, _, _ := strings.Cut(sqlA, "\n"); !strings.HasPrefix(sqlC, firstA+"\n") {
		t.Error("the first anchor query moved with the seed")
	}
}

func TestScheduleCoversTheMix(t *testing.T) {
	w := &serveMix{cfg: smokeConfig(3)}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	seen := map[requestKind]int{}
	misses := map[string]bool{}
	for _, r := range w.schedule(newPass(w.cfg, nil), 4000) {
		seen[r.kind]++
		if r.kind == kindCompileMiss {
			if misses[string(r.body)] {
				t.Fatalf("compile-miss body repeated: %s", r.body)
			}
			misses[string(r.body)] = true
		}
	}
	total := 0
	for kind, share := range mix {
		total += share
		// Within a third of the nominal share, or at least one for the
		// 1 % kind: the schedule is a sample, not a quota.
		got, want := float64(seen[requestKind(kind)]), float64(share)*40
		if got < want*2/3 || got > want*4/3 {
			t.Errorf("kind %d: %g of 4000 slots, nominal %g", kind, got, want)
		}
	}
	if total != 100 {
		t.Errorf("the mix sums to %d %%, want 100", total)
	}
}

func TestPaperGridLocationsFollowTheSeed(t *testing.T) {
	locations := func(seed int64) (seeded, lattice string) {
		w := &paperGrid{cfg: smokeConfig(seed)}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(w.spaces[0].seeded, w.spaces[9].seeded), fmt.Sprint(w.spaces[0].lattice, w.spaces[9].lattice)
	}
	seeded5, lattice5 := locations(5)
	again5, _ := locations(5)
	seeded6, lattice6 := locations(6)
	if seeded5 != again5 {
		t.Error("the same seed sampled different locations")
	}
	if seeded5 == seeded6 {
		t.Error("seeds 5 and 6 sampled the same locations")
	}
	if lattice5 != lattice6 {
		t.Error("the lattice mso_gmean is taken over moved with the seed")
	}
}

func TestCorpusOrderFollowsTheSeed(t *testing.T) {
	order := func(seed int64) string {
		w := &corpusCompile{cfg: smokeConfig(seed)}
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		defer w.close()
		var ids []string
		for _, cq := range w.queries {
			ids = append(ids, cq.spec.ID)
		}
		return strings.Join(ids, " ")
	}
	if order(1) != order(1) {
		t.Error("the same seed replayed the corpus in two orders")
	}
	if order(1) == order(2) {
		t.Error("seeds 1 and 2 replayed the corpus in the same order")
	}
}

// TestGeneratorYieldsDistinctFingerprints compiles the full-size SQL pool
// on one server: every first compile must miss the cache, which is what
// "distinct fingerprint" means to the system under test.
func TestGeneratorYieldsDistinctFingerprints(t *testing.T) {
	cat := catalog.TPCHLike(1.0)
	pool, _, err := serveMixSQL(cat, 11, serveMixPool)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) < 160 {
		t.Fatalf("generator yielded %d queries, want at least 160", len(pool))
	}
	lb, err := serveLoopback(1)
	if err != nil {
		t.Fatal(err)
	}
	defer lb.close()
	// A cache that holds the whole pool, so a repeat could not hide
	// behind an eviction.
	lb.mount(server.NewWithConfig(cat, server.Config{CacheSize: 2 * len(pool)}).Handler())
	for i, g := range pool {
		if g.dims < 2 || g.dims > 3 {
			t.Errorf("query %d has %d error dimensions, want 2 or 3", i, g.dims)
		}
		rep, err := lb.post("/compile", mustJSON(compileReq{SQL: g.sql, Res: g.res, Lambda: lambda.F()}))
		if err != nil {
			t.Fatal(err)
		}
		var got compileResp
		if err := json.Unmarshal(rep.body, &got); err != nil || !rep.ok() {
			t.Fatalf("query %d answered %d: %s\n%s", i, rep.status, rep.body, g.sql)
		}
		if got.Cached {
			t.Errorf("query %d was served from the cache on first compile:\n%s", i, g.sql)
		}
		if got.Dims != g.dims {
			t.Errorf("query %d compiled to %d dimensions, generator says %d", i, got.Dims, g.dims)
		}
	}
}
