package shard

import (
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync/atomic"
	"testing"

	"forestview/internal/golem"
	"forestview/internal/ontology"
	"forestview/internal/spell"
)

// enrichHandler serves EnrichPath the way the daemon does: re-derive the
// group list from the request's fleet view, translate Owners into a slice
// index, and return that slice's partial counts.
func (s *testShard) enrichHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req EnrichRequest
		if err := gob.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if s.enrichBehave != nil && s.enrichBehave(w, &req) {
			return
		}
		gi, slices := 0, 1
		if len(req.Owners) > 0 {
			groups := Groups(s.allIDs, req.Shards, req.Replication)
			slices = len(groups)
			if gi = GroupIndex(groups, req.Owners); gi < 0 {
				http.Error(w, "unknown ownership group", http.StatusUnprocessableEntity)
				return
			}
		}
		p, err := s.enr.PartialAnalyzeCtx(r.Context(), req.Selection, gi, slices)
		if err != nil {
			http.Error(w, err.Error(), http.StatusUnprocessableEntity)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		_ = gob.NewEncoder(w).Encode(p)
	}
}

func (s *testShard) enrichCatalogHandler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = gob.NewEncoder(w).Encode(s.enr.Catalog())
	}
}

// testEnricher builds a deterministic enrichment universe: a star ontology
// with random annotations over the given gene universe. Identical seeds
// build identical enrichers (same fingerprint) — the homogeneous-fleet
// assumption the daemons satisfy by loading the same ontology files.
func testEnricher(t testing.TB, seed int64, nGenes, nTerms int) (*golem.Enricher, []string) {
	t.Helper()
	o := ontology.New()
	if err := o.AddTerm(&ontology.Term{ID: "T0000", Name: "root"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < nTerms; i++ {
		id := fmt.Sprintf("T%04d", i)
		if err := o.AddTerm(&ontology.Term{ID: id, Name: "term " + id, Parents: []string{"T0000"}}); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	ann := ontology.NewAnnotations()
	var background []string
	for g := 0; g < nGenes; g++ {
		gene := fmt.Sprintf("EG%05d", g)
		background = append(background, gene)
		for a := 0; a < 1+rng.Intn(3); a++ {
			ann.Add(gene, fmt.Sprintf("T%04d", rng.Intn(nTerms)))
		}
	}
	enr, err := golem.NewEnricher(o, ann, background)
	if err != nil {
		t.Fatal(err)
	}
	sel := make([]string, 0, nGenes/5)
	for g := 0; g < nGenes/5; g++ {
		sel = append(sel, background[rng.Intn(len(background))])
	}
	return enr, sel
}

// withEnrichers arms every fixture shard with an enricher built from the
// same seed, as daemons loading the same ontology would.
func (f *scatterFixture) withEnrichers(t testing.TB, seed int64) []string {
	t.Helper()
	var sel []string
	for _, sh := range f.shards {
		sh.enr, sel = testEnricher(t, seed, 400, 120)
	}
	return sel
}

func assertEnrichParity(t *testing.T, got, want []golem.Enrichment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("result count %d vs %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.TermID != w.TermID || g.Selected != w.Selected || g.Background != w.Background ||
			g.SelectionSize != w.SelectionSize || g.BackgroundSize != w.BackgroundSize {
			t.Fatalf("rank %d: %+v vs %+v", i, g, w)
		}
		if math.Abs(g.PValue-w.PValue) > 1e-12 || math.Abs(g.FDR-w.FDR) > 1e-12 {
			t.Fatalf("rank %d (%s): p %v vs %v", i, w.TermID, g.PValue, w.PValue)
		}
	}
}

// TestEnrichScatterMatchesAnalyze: the distributed acceptance proof at the
// scatter layer — for fleets of {1,2,3,5} shards at R∈{1,2}, the merged
// coordinator enrichment equals single-process Analyze exactly.
func TestEnrichScatterMatchesAnalyze(t *testing.T) {
	for _, tc := range []struct{ shards, repl int }{
		{1, 1}, {2, 1}, {3, 1}, {5, 1}, {2, 2}, {3, 2}, {5, 2},
	} {
		t.Run(fmt.Sprintf("%dshards-r%d", tc.shards, tc.repl), func(t *testing.T) {
			f := newScatterFixtureN(t, tc.shards, tc.repl, 4*tc.shards)
			sel := f.withEnrichers(t, 5)
			c, _ := f.start(t, Config{Replication: tc.repl})
			for _, opt := range []golem.Options{{}, {MinSelected: 2, MaxPValue: 0.5}} {
				want, err := f.shards[0].enr.Analyze(sel, opt)
				if err != nil {
					t.Fatal(err)
				}
				res, meta, err := c.EnrichCtx(context.Background(), sel, opt)
				if err != nil {
					t.Fatalf("EnrichCtx %+v: %v", opt, err)
				}
				if meta.Degraded || meta.GroupsOK != meta.GroupsTotal {
					t.Fatalf("healthy fleet degraded: %+v", meta)
				}
				assertEnrichParity(t, res.Results, want)
				if res.Background != f.shards[0].enr.BackgroundSize() {
					t.Fatalf("merged background %d, want %d", res.Background, f.shards[0].enr.BackgroundSize())
				}
			}
		})
	}
}

// TestEnrichScatterReplicaFailover: at R=2 a dead shard costs nothing —
// every slice fails over to a surviving replica (or the scavenge pass) and
// the merge stays exact and non-degraded.
func TestEnrichScatterReplicaFailover(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	sel := f.withEnrichers(t, 7)
	c, servers := f.start(t, Config{Replication: 2})
	want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	servers[1].Close()
	res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if meta.Degraded {
		t.Fatalf("degraded despite replication: %+v", meta)
	}
	assertEnrichParity(t, res.Results, want)
}

// TestEnrichScatterOntologyLessShard is the mixed-fleet case: a shard
// without an ontology 404s the enrich endpoints. Because any capable shard
// can serve any background slice, the fleet still answers exactly and
// non-degraded as long as one capable shard is reachable; a fleet with no
// capable shard at all reports ErrNoEnrichment (not an outage).
func TestEnrichScatterOntologyLessShard(t *testing.T) {
	for _, tc := range []struct {
		name    string
		capable func(si int) bool
		wantErr error
	}{
		{"one-dark-shard", func(si int) bool { return si != 1 }, nil},
		{"only-one-capable", func(si int) bool { return si == 0 }, nil},
		{"none-capable", func(si int) bool { return false }, ErrNoEnrichment},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newScatterFixtureR(t, 3, 1)
			sel := f.withEnrichers(t, 11)
			want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for si, sh := range f.shards {
				if !tc.capable(si) {
					sh.enr = nil // start() will not register the enrich endpoints
				}
			}
			c, _ := f.start(t, Config{})
			res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if meta.Degraded {
				t.Fatalf("capable shards reachable, still degraded: %+v", meta)
			}
			assertEnrichParity(t, res.Results, want)
			// Search keeps working either way — capabilities are per-path.
			if _, _, err := c.SearchCtx(context.Background(), f.query, spell.Options{}); err != nil {
				t.Fatalf("search broken by enrichment gap: %v", err)
			}
		})
	}
}

// TestEnrichDarkShardKeepsBreakerClosed: a shard without an ontology
// answers the enrich path with 404 ("unsupported"). That says nothing
// about its health, so a stream of enrichments at the default breaker
// threshold must leave its breaker closed — the breaker its search traffic
// shares — with nothing tripped and no search attempt skipped.
func TestEnrichDarkShardKeepsBreakerClosed(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	sel := f.withEnrichers(t, 17)
	f.shards[1].enr = nil // start() will not register the enrich endpoints
	c, _ := f.start(t, Config{Replication: 2})
	for i := 0; i < 30; i++ {
		if _, _, err := c.EnrichCtx(context.Background(), sel, golem.Options{}); err != nil {
			t.Fatalf("enrich %d: %v", i, err)
		}
	}
	if _, _, err := c.SearchCtx(context.Background(), f.query, spell.Options{}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range c.Stats().Shards {
		if s.Addr != f.identities[1] {
			continue
		}
		found = true
		if s.Breaker != "closed" || s.BreakerTrips != 0 || s.BreakerSkips != 0 {
			t.Fatalf("dark shard's breaker: %s, trips %d, skips %d; want closed, 0, 0",
				s.Breaker, s.BreakerTrips, s.BreakerSkips)
		}
	}
	if !found {
		t.Fatalf("no stats for %s", f.identities[1])
	}
}

// TestEnrichScatterDegraded pins that fleet enrichment cannot degrade: the
// single whole-background request fails over across every live shard, so
// with all capable shards but one refusing — one with a 500, one with a
// partial of half the background — the answer is still exact and
// non-degraded, served by the one willing shard; with every shard refusing
// it is ErrAllShardsFailed, never a partial merge.
func TestEnrichScatterDegraded(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	sel := f.withEnrichers(t, 13)
	want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var refuseAll atomic.Bool
	var served atomic.Int64 // calls the willing shard-2 answered
	for si, sh := range f.shards {
		si := si
		enr := sh.enr
		sh.enrichBehave = func(w http.ResponseWriter, req *EnrichRequest) bool {
			switch {
			case si == 0 || refuseAll.Load():
				http.Error(w, "refusing enrichment for test", http.StatusInternalServerError)
			case si == 1:
				half, err := enr.PartialAnalyze(req.Selection, 0, 2)
				if err != nil {
					http.Error(w, err.Error(), http.StatusUnprocessableEntity)
					return true
				}
				_ = gob.NewEncoder(w).Encode(half)
			default:
				served.Add(1)
				return false
			}
			return true
		}
	}
	// Breaker off: every call walks the whole fleet, whatever the p2c pick.
	c, _ := f.start(t, Config{Replication: 2, BreakerThreshold: -1})

	const calls = 6
	for i := 0; i < calls; i++ {
		res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if meta.Degraded || meta.ShardsOK != 1 || meta.GroupsOK != 1 || meta.GroupsTotal != 1 {
			t.Fatalf("call %d: want exact 1/1, got %+v", i, meta)
		}
		assertEnrichParity(t, res.Results, want)
		if res.Background != f.shards[0].enr.BackgroundSize() {
			t.Fatalf("call %d: background %d, want %d", i, res.Background, f.shards[0].enr.BackgroundSize())
		}
	}
	if got := served.Load(); got != calls {
		t.Fatalf("willing shard served %d of %d calls", got, calls)
	}
	// A selection the universe has never seen is the caller's error.
	if _, _, err := c.EnrichCtx(context.Background(), []string{"NO-SUCH-GENE"}, golem.Options{}); !errors.Is(err, golem.ErrNoSelection) {
		t.Fatalf("unknown selection: err = %v, want ErrNoSelection", err)
	}

	refuseAll.Store(true)
	res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
	if !errors.Is(err, ErrAllShardsFailed) || res != nil {
		t.Fatalf("all refusing: res %v err = %v, want ErrAllShardsFailed", res, err)
	}
	if meta.Degraded || meta.GroupsOK != 0 {
		t.Fatalf("all refusing: meta %+v", meta)
	}
}

// TestEnrichScatterOneRequest: on a healthy 3-shard R=2 fleet every
// enrichment costs exactly one replica request — the whole background in
// one round trip, not one slice per ownership group.
func TestEnrichScatterOneRequest(t *testing.T) {
	f := newScatterFixtureR(t, 3, 2)
	sel := f.withEnrichers(t, 19)
	c, _ := f.start(t, Config{Replication: 2})
	requests := func() (n int64) {
		for _, s := range c.Stats().Shards {
			n += s.Requests
		}
		return n
	}
	for i := 0; i < 4; i++ {
		before := requests()
		if _, _, err := c.EnrichCtx(context.Background(), sel[i:], golem.Options{}); err != nil {
			t.Fatal(err)
		}
		if got := requests() - before; got != 1 {
			t.Fatalf("call %d: %d replica requests, want 1", i, got)
		}
	}
}

// TestEnrichScatterFingerprintMismatch: a shard whose enricher was built
// differently (file-mode shard with a slice-local background) must be
// failed over, never merged.
func TestEnrichScatterFingerprintMismatch(t *testing.T) {
	f := newScatterFixtureR(t, 2, 1)
	sel := f.withEnrichers(t, 17)
	want, err := f.shards[0].enr.Analyze(sel, golem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1 builds from a different universe: same API, wrong fingerprint.
	f.shards[1].enr, _ = testEnricher(t, 99, 300, 80)
	c, _ := f.start(t, Config{})
	res, meta, err := c.EnrichCtx(context.Background(), sel, golem.Options{})
	if err != nil {
		// Acceptable only if the catalog itself came from the odd shard and
		// every slice then failed over to... shard 0, which mismatches it.
		// Either way nothing wrong was merged.
		t.Skipf("whole scatter refused (catalog from mismatched shard): %v", err)
	}
	if meta.Degraded {
		t.Fatalf("mismatch should fail over to the consistent shard: %+v", meta)
	}
	// Whichever catalog won, the merged results must be internally exact:
	// they either match shard 0's universe or shard 1's.
	alt, aerr := f.shards[1].enr.Analyze(sel, golem.Options{})
	matches := func(w []golem.Enrichment, werr error) bool {
		if werr != nil || len(res.Results) != len(w) {
			return false
		}
		for i := range w {
			if res.Results[i] != w[i] {
				return false
			}
		}
		return true
	}
	if !matches(want, nil) && !matches(alt, aerr) {
		t.Fatalf("merged results match neither enricher's exact analysis")
	}
}
