package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"forestview/internal/microarray"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
)

// drainTopology is a drain-capable shard fleet in-process: every shard
// boots with its fleet identity, the full membership view, a dataset
// loader over the shared compendium, the shared ontology, and the admin
// token — everything a rolling restart needs.
type drainTopology struct {
	dss       []*microarray.Dataset
	names     []string // global dataset catalog
	shards    []string // fleet identities
	servers   []*httptest.Server
	srv       []*Server
	query     []string
	selection []string    // an enrichment selection over the universe
	drained   chan string // OnDrained pings, by shard identity
}

const drainToken = "sesame"

func newDrainTopology(t testing.TB, nShards, repl int) *drainTopology {
	t.Helper()
	u := synth.NewUniverse(200, 8, 71)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 6, MinExperiments: 8, MaxExperiments: 14,
		ActiveFraction: 0.5, Noise: 0.3, Seed: 72,
	})
	names := make([]string, len(dss))
	for i, ds := range dss {
		names[i] = ds.Name
	}
	var shardNames []string
	for i := 0; i < nShards; i++ {
		shardNames = append(shardNames, fmt.Sprintf("shard-%d", i))
	}
	top := &drainTopology{
		dss: dss, names: names, shards: shardNames,
		query:     u.ModuleGeneIDs(2)[:4],
		selection: u.ModuleGeneIDs(3),
		drained:   make(chan string, nShards),
	}
	urls := make(map[string]string, nShards)
	for si, self := range shardNames {
		self := self
		owned := shard.OwnedIndexesR(names, shardNames, self, repl)
		var slice []*microarray.Dataset
		for _, gi := range owned {
			slice = append(slice, dss[gi])
		}
		se, err := spell.NewEngine(slice)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := New(Config{
			Engine:           se,
			Enricher:         topologyEnricher(t, u),
			ShardIndexes:     owned,
			ShardDatasetIDs:  names,
			ShardSelf:        self,
			ShardFleet:       shardNames,
			ShardReplication: repl,
			ShardRawDatasets: slice,
			ShardLoader: func(_ context.Context, gi int) (*microarray.Dataset, error) {
				return dss[gi], nil
			},
			ShardResolve: func(id string) string { return urls[id] },
			OnDrained:    func() { top.drained <- self },
			FleetToken:   drainToken,
			CacheBytes:   4 << 20,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(ss.Close)
		hs := httptest.NewServer(ss)
		t.Cleanup(hs.Close)
		top.servers = append(top.servers, hs)
		top.srv = append(top.srv, ss)
		urls[shardNames[si]] = hs.URL
	}
	return top
}

// postJSON drives a token-gated admin endpoint over the real listener.
func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Fleet-Token", drainToken)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// shardEnrich posts one shard enrich request and returns the response plus
// its cache disposition header.
func shardEnrich(t *testing.T, url string, req shard.EnrichRequest) (*http.Response, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+shard.EnrichPath, shard.ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp, resp.Header.Get(cacheHeader)
}

// shardSearch posts one shard search request and returns the response plus
// its cache disposition header.
func shardSearch(t *testing.T, url string, req shard.SearchRequest) (*http.Response, string) {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+shard.SearchPath, shard.ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var p spell.Partial
	if resp.StatusCode == http.StatusOK {
		if err := gob.NewDecoder(resp.Body).Decode(&p); err != nil {
			t.Fatal(err)
		}
	}
	return resp, resp.Header.Get(cacheHeader)
}

// TestShardDrainWarmHandoff is the tentpole's server-layer proof: a
// drained shard pushes its warm partials to the post-drain owners, the
// receivers accept (or replay-warm) every entry, and the successor serves
// the drained shard's hot query as a cache hit on first touch.
func TestShardDrainWarmHandoff(t *testing.T) {
	top := newDrainTopology(t, 3, 2)
	survivors := []string{"shard-1", "shard-2"}

	// Warm shard-0 with a hot query (legacy whole-slice request: the warm
	// tracker records the query, not the scope).
	if resp, disp := shardSearch(t, top.servers[0].URL, shard.SearchRequest{Query: top.query}); resp.StatusCode != http.StatusOK || disp != dispMiss {
		t.Fatalf("warming search = %d/%s", resp.StatusCode, disp)
	}

	// Survivors adopt the post-drain topology first (the rolling-restart
	// order): each re-derives its owned slice, loading what it lacked.
	fleetBody := `{"shards":["shard-1","shard-2"],"replication":2}`
	for _, si := range []int{1, 2} {
		resp, body := postJSON(t, top.servers[si].URL+shard.ShardFleetPath, fleetBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %d reload = %d: %s", si, resp.StatusCode, body)
		}
		var st shardFleetState
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		// R=2 over 2 shards: every survivor owns the whole catalog.
		if st.Held != len(top.dss) {
			t.Fatalf("survivor %d holds %d datasets after reload, want %d (%s)", si, st.Held, len(top.dss), body)
		}
		if st.Reloads != 1 {
			t.Fatalf("survivor %d reloads = %d", si, st.Reloads)
		}
	}

	// Drain shard-0 toward the survivors.
	resp, body := postJSON(t, top.servers[0].URL+shard.DrainPath, fleetBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d: %s", resp.StatusCode, body)
	}
	var dr drainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Status != shard.StatusDraining || len(dr.PushErrors) != 0 {
		t.Fatalf("drain response: %+v", dr)
	}
	if dr.Pushed+dr.Replayed == 0 {
		t.Fatalf("drain pushed nothing: %+v", dr)
	}

	// OnDrained fired exactly once, for shard-0.
	select {
	case id := <-top.drained:
		if id != "shard-0" {
			t.Fatalf("OnDrained for %q", id)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnDrained never fired")
	}

	// The drained shard advertises its state.
	info := shardInfoOf(t, top.servers[0])
	if info.Status != shard.StatusDraining {
		t.Fatalf("drained shard status = %q", info.Status)
	}
	for _, si := range []int{1, 2} {
		if st := shardInfoOf(t, top.servers[si]); st.Status != shard.StatusActive {
			t.Fatalf("survivor %d status = %q", si, st.Status)
		}
	}

	// The successors serve the drained shard's hot query warm: every
	// ownership group of the post-drain topology answers the first group
	// request for it as a cache hit (accepted verbatim or replay-warmed at
	// handoff time — either way, no cold recompute now).
	urls := map[string]string{"shard-1": top.servers[1].URL, "shard-2": top.servers[2].URL}
	for _, owners := range shard.Groups(top.names, survivors, 2) {
		for _, owner := range owners {
			resp, disp := shardSearch(t, urls[owner], shard.SearchRequest{
				Query: top.query, Shards: survivors, Replication: 2, Owners: owners,
			})
			if resp.StatusCode != http.StatusOK || disp != dispHit {
				t.Fatalf("post-drain search on %s (group %v) = %d/%s, want 200/hit", owner, owners, resp.StatusCode, disp)
			}
		}
	}

	// Both directions of the handoff are accounted, with nothing refused.
	snap0 := top.srv[0].Stats()
	if snap0.Shard == nil || snap0.Shard.Status != shard.StatusDraining {
		t.Fatalf("drained shard stats: %+v", snap0.Shard)
	}
	if snap0.Shard.Handoff.Pushed+snap0.Shard.Handoff.Replayed == 0 || snap0.Shard.Handoff.PushErrors != 0 {
		t.Fatalf("drained shard handoff counters: %+v", snap0.Shard.Handoff)
	}
	var received int64
	for _, si := range []int{1, 2} {
		h := top.srv[si].Stats().Shard.Handoff
		if h.RefusedStale != 0 {
			t.Fatalf("survivor %d refused entries: %+v", si, h)
		}
		received += h.Accepted + h.Recomputed
	}
	if received == 0 {
		t.Fatal("no survivor recorded a received handoff entry")
	}

	// Idempotent: a repeat drain reports without re-pushing.
	pushedBefore := snap0.Shard.Handoff.Pushed
	resp, body = postJSON(t, top.servers[0].URL+shard.DrainPath, fleetBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat drain = %d: %s", resp.StatusCode, body)
	}
	if got := top.srv[0].Stats().Shard.Handoff.Pushed; got != pushedBefore {
		t.Fatalf("repeat drain re-pushed: %d -> %d", pushedBefore, got)
	}
	select {
	case id := <-top.drained:
		t.Fatalf("repeat drain re-fired OnDrained (%q)", id)
	default:
	}
}

// TestShardDrainEnrichHandoff: a drained shard pushes each warm enrichment
// once, as the whole-background partial a coordinator asks for, to every
// survivor; each survivor accepts the body verbatim and answers its first
// whole-background request for the selection as a cache hit.
func TestShardDrainEnrichHandoff(t *testing.T) {
	top := newDrainTopology(t, 3, 2)
	whole := shard.EnrichRequest{Selection: top.selection}
	if resp, disp := shardEnrich(t, top.servers[0].URL, whole); resp.StatusCode != http.StatusOK || disp != dispMiss {
		t.Fatalf("warming enrich = %d/%s", resp.StatusCode, disp)
	}
	fleetBody := `{"shards":["shard-1","shard-2"],"replication":2}`
	for _, si := range []int{1, 2} {
		if resp, body := postJSON(t, top.servers[si].URL+shard.ShardFleetPath, fleetBody); resp.StatusCode != http.StatusOK {
			t.Fatalf("survivor %d reload = %d: %s", si, resp.StatusCode, body)
		}
	}
	resp, body := postJSON(t, top.servers[0].URL+shard.DrainPath, fleetBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drain = %d: %s", resp.StatusCode, body)
	}
	var dr drainResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	// One whole-background entry, with its body, per survivor.
	if dr.Pushed != 2 || dr.Replayed != 0 || len(dr.PushErrors) != 0 {
		t.Fatalf("drain response: %+v", dr)
	}
	for _, si := range []int{1, 2} {
		if h := top.srv[si].Stats().Shard.Handoff; h.Accepted != 1 || h.Recomputed != 0 || h.RefusedStale != 0 {
			t.Fatalf("survivor %d handoff: %+v", si, h)
		}
		if resp, disp := shardEnrich(t, top.servers[si].URL, whole); resp.StatusCode != http.StatusOK || disp != dispHit {
			t.Fatalf("post-drain enrich on survivor %d = %d/%s, want 200/hit", si, resp.StatusCode, disp)
		}
	}
}

// TestShardHandoffGenerationGuard pins the staleness rules: a push whose
// generation does not fingerprint its own shard list is rejected outright,
// and a well-formed push for a topology the receiver is not at is refused
// entirely as stale.
func TestShardHandoffGenerationGuard(t *testing.T) {
	top := newDrainTopology(t, 3, 2)

	push := func(req shard.HandoffRequest) (*http.Response, shard.HandoffResponse) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(req); err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, top.servers[1].URL+shard.HandoffPath, &buf)
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("X-Fleet-Token", drainToken)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr shard.HandoffResponse
		if resp.StatusCode == http.StatusOK {
			if err := gob.NewDecoder(resp.Body).Decode(&hr); err != nil {
				t.Fatal(err)
			}
		}
		return resp, hr
	}

	entry := shard.HandoffEntry{Kind: shard.CapabilitySearch, Query: top.query, Owners: []string{"shard-1", "shard-2"}}
	target := []string{"shard-1", "shard-2"}

	// Self-inconsistent push: generation does not fingerprint its list.
	resp, _ := push(shard.HandoffRequest{
		From: "shard-0", Shards: target, Replication: 2,
		Generation: 12345, Entries: []shard.HandoffEntry{entry},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("inconsistent generation = %d, want 422", resp.StatusCode)
	}

	// Consistent push for a topology the receiver (still at boot view,
	// three shards) is not serving: every entry refused as stale.
	resp, hr := push(shard.HandoffRequest{
		From: "shard-0", Shards: target, Replication: 2,
		Generation: shard.Generation(target), Entries: []shard.HandoffEntry{entry},
	})
	if resp.StatusCode != http.StatusOK || hr.RefusedStale != 1 || hr.Accepted+hr.Recomputed != 0 {
		t.Fatalf("stale push = %d, %+v", resp.StatusCode, hr)
	}

	// No token, no handoff.
	var buf bytes.Buffer
	_ = gob.NewEncoder(&buf).Encode(shard.HandoffRequest{})
	plain, err := http.Post(top.servers[1].URL+shard.HandoffPath, shard.ContentType, &buf)
	if err != nil {
		t.Fatal(err)
	}
	plain.Body.Close()
	if plain.StatusCode != http.StatusForbidden {
		t.Fatalf("tokenless handoff = %d, want 403", plain.StatusCode)
	}
}

// TestShardFleetReloadGrowsHoldings pins the membership-reload side: a
// shard told the fleet shrank re-derives its owned slice, loads the
// datasets it lacked through ShardLoader, and serves them — while a
// repeated identical POST is a no-op.
func TestShardFleetReloadGrowsHoldings(t *testing.T) {
	top := newDrainTopology(t, 3, 1) // R=1: slices are disjoint, reload must load
	s1 := top.srv[1]
	heldBefore := len(s1.shardState().indexes)
	if heldBefore == len(top.dss) {
		t.Fatal("fixture gives shard-1 the whole catalog; nothing to prove")
	}

	body := `{"shards":["shard-1"],"replication":1}`
	resp, raw := postJSON(t, top.servers[1].URL+shard.ShardFleetPath, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload = %d: %s", resp.StatusCode, raw)
	}
	var st shardFleetState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.Held != len(top.dss) || st.Loaded != len(top.dss)-heldBefore {
		t.Fatalf("sole-survivor reload: held %d loaded %d, want %d/%d (%s)",
			st.Held, st.Loaded, len(top.dss), len(top.dss)-heldBefore, raw)
	}

	// The engine behind the state actually serves the grown slice.
	resp2, _ := shardSearch(t, top.servers[1].URL, shard.SearchRequest{Query: top.query})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-reload search = %d", resp2.StatusCode)
	}

	// Identical list: no generation bump, no load, no reload count.
	resp, raw = postJSON(t, top.servers[1].URL+shard.ShardFleetPath, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat reload = %d: %s", resp.StatusCode, raw)
	}
	var again shardFleetState
	if err := json.Unmarshal(raw, &again); err != nil {
		t.Fatal(err)
	}
	if again.Loaded != 0 || again.Generation != st.Generation {
		t.Fatalf("repeat reload not a no-op: %s", raw)
	}
}
