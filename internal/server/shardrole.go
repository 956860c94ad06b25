package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"forestview/internal/golem"
	"forestview/internal/shard"
	"forestview/internal/spell"
)

// This file is the daemon's side of the sharded compendium (DESIGN.md §4):
// the shard role serves spell partials for its dataset slice at
// /api/shard/search, and the coordinator role scatters /api/search over
// the shard backends, merging with global weight renormalization. Both
// directions run through the same sharded LRU + singleflight discipline
// as every other endpoint.

// handleShardSearch serves POST /api/shard/search: a gob shard.SearchRequest
// in, a gob spell.Partial out — dataset indexes already remapped to the
// global compendium order. Partials are cached under the canonical query
// ("partial" prefix): identical queries from one or many coordinators
// scan each dataset slice once.
func (s *Server) handleShardSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a gob-encoded shard search request")
		return
	}
	var req shard.SearchRequest
	if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad shard request: "+err.Error())
		return
	}
	ids := spell.CanonicalQuery(req.Query)
	if len(ids) == 0 {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, "empty query")
		return
	}
	s.warm.touch(shard.CapabilitySearch, ids)
	body, disp, err := s.partialSearch(r.Context(), ids, &req)
	s.writePartial(w, r, body, disp, err, "partial search")
}

// writePartial answers a shard wire request with its gob-encoded partial,
// or maps the compute error: a context error as on every endpoint (the
// coordinator giving up on us — deadline, hedge won elsewhere, or its own
// caller hung up — is a 499), an encode bug to a counted 500, anything
// else to 422.
func (s *Server) writePartial(w http.ResponseWriter, r *http.Request, body []byte, disp string, err error, what string) {
	switch {
	case s.writeInterrupted(w, r, err, nil, what):
	case errors.Is(err, errPartialEncode):
		s.encodeFailures.Add(1)
		s.writeJSONError(w, http.StatusInternalServerError, codeEncodeFailed, err.Error())
	case err != nil:
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
	default:
		w.Header().Set(cacheHeader, disp)
		w.Header().Set("Content-Type", shard.ContentType)
		_, _ = w.Write(body)
	}
}

// errPartialEncode marks a gob failure while encoding a partial — a bug,
// reported as a counted 500 like every other encode failure.
var errPartialEncode = errors.New("partial encode failed")

// cachedPartial runs a shard partial through cachedDo in its wire form,
// gob-encoded once at compute time: the wire form is what every consumer of
// the cache wants, so a cache hit costs zero re-encoding and the entry's
// cost is its exact byte length.
func (s *Server) cachedPartial(ctx context.Context, key string, compute func() (any, error)) ([]byte, string, error) {
	v, disp, err := s.cachedDo(ctx, &s.statShard, key, bytesCost, func() (any, error) {
		p, err := compute()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(p); err != nil {
			return nil, fmt.Errorf("%w: %v", errPartialEncode, err)
		}
		return buf.Bytes(), nil
	})
	if err != nil {
		return nil, disp, err
	}
	return v.([]byte), disp, nil
}

// groupSearchKey is the cache key of one search partial. The handoff
// receiver (drain.go) inserts pushed bodies under this exact key, so it
// must stay in lockstep with partialSearch. A group-scoped key carries the
// topology generation, the replication factor and the owner tuple: a
// membership change re-derives groups, and stale group partials become
// unreachable rather than wrong.
func groupSearchKey(req *shard.SearchRequest, ids []string) string {
	if len(req.Owners) == 0 {
		return "partial\x1f" + joinIDs(ids)
	}
	return fmt.Sprintf("partial\x1f%016x\x1f%d\x1f%s\x1f%s",
		shard.Generation(req.Shards), req.Replication, joinIDs(req.Owners), joinIDs(ids))
}

// partialSearch computes (or serves cached) this shard's partial for a
// canonical query, with dataset indexes remapped to the global compendium
// order at compute time, so cached partials are already global. Without
// Owners it scores every held dataset; with them it is scoped to one
// ownership group of a replicated fleet (DESIGN.md §5): the shard
// recomputes the group from the request's (shards, replication, owners) —
// the same pure function the coordinator derived it from — and scores only
// the datasets it holds from that group, so no two replicas can both claim
// a dataset in one merge.
func (s *Server) partialSearch(ctx context.Context, ids []string, req *shard.SearchRequest) ([]byte, string, error) {
	return s.cachedPartial(ctx, groupSearchKey(req, ids), func() (any, error) {
		st := s.shardState()
		var subset []int // nil: every held dataset
		if len(req.Owners) > 0 {
			subset = []int{} // non-nil: an empty intersection is a valid empty partial
			for _, gi := range shard.GroupIndexes(s.cfg.ShardDatasetIDs, req.Shards, req.Replication, req.Owners) {
				if li, ok := st.local[gi]; ok {
					subset = append(subset, li)
				}
			}
		}
		p, err := st.engine.PartialSearchSubsetCtx(ctx, ids, subset, spell.Options{Parallelism: s.cfg.SearchParallelism})
		if err != nil {
			return nil, err
		}
		for i := range p.Datasets {
			p.Datasets[i].Index = st.indexes[p.Datasets[i].Index]
		}
		return p, nil
	})
}

// handleShardInfo serves GET /api/shard/v1/info: this shard's slice (size,
// gene IDs, held dataset names) plus the full boot catalog coordinators
// derive ownership groups from, and the capability list a mixed-version
// fleet negotiates with (a shard without an ontology simply doesn't list
// "enrich", and its enrich paths 404).
func (s *Server) handleShardInfo(w http.ResponseWriter, r *http.Request) {
	st := s.shardState()
	held := make([]string, len(st.indexes))
	for li, gi := range st.indexes {
		held[li] = s.cfg.ShardDatasetIDs[gi]
	}
	caps := []string{shard.CapabilitySearch}
	if s.cfg.Enricher != nil {
		caps = append(caps, shard.CapabilityEnrich)
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(shard.Info{
		Datasets:      st.engine.NumDatasets(),
		GeneIDs:       st.engine.GeneIDs(),
		DatasetIDs:    held,
		AllDatasetIDs: s.cfg.ShardDatasetIDs,
		Capabilities:  caps,
		Status:        s.shardStatus(),
	})
	if err != nil {
		s.encodeFailures.Add(1)
		s.writeJSONError(w, http.StatusInternalServerError, codeEncodeFailed, "info encode failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", shard.ContentType)
	_, _ = w.Write(buf.Bytes())
}

// handleShardEnrich serves POST /api/shard/v1/enrich: a gob
// shard.EnrichRequest in, a gob golem.PartialCounts out — the integer
// tallies of the requested background slice. A coordinator asks for the
// whole background (no Owners: slice 0 of 1); an owner-bearing request
// names slice gi of G through the same pure Groups derivation older
// coordinators used, and keeps being served for mixed-version fleets.
// Mounted only on shards with an enricher; a capability-less shard 404s,
// which the coordinator reads as "unsupported" and fails over.
func (s *Server) handleShardEnrich(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "POST a gob-encoded shard enrich request")
		return
	}
	var req shard.EnrichRequest
	if err := gob.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad shard request: "+err.Error())
		return
	}
	sel := spell.CanonicalQuery(req.Selection)
	if len(sel) == 0 {
		s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, "empty selection")
		return
	}
	s.warm.touch(shard.CapabilityEnrich, sel)
	body, disp, err := s.partialEnrich(r.Context(), sel, &req)
	s.writePartial(w, r, body, disp, err, "partial enrichment")
}

// groupEnrichKey is the cache key of one background slice's tallies, kept
// in lockstep with partialEnrich for the handoff receiver's inserts. The
// whole background is the same slice under every topology, so its key
// carries none.
func groupEnrichKey(req *shard.EnrichRequest, sel []string) string {
	if len(req.Owners) == 0 {
		return "epartial\x1fwhole\x1f" + joinIDs(sel)
	}
	return fmt.Sprintf("epartial\x1f%016x\x1f%d\x1f%s\x1f%s",
		shard.Generation(req.Shards), req.Replication, joinIDs(req.Owners), joinIDs(sel))
}

// enrichSlice resolves the background slice a request names: the whole
// universe (0 of 1) without Owners, else the owner tuple's position gi in
// the G groups of this catalog (gi = -1 for a tuple that is no group).
func (s *Server) enrichSlice(req *shard.EnrichRequest) (gi, slices int) {
	if len(req.Owners) == 0 {
		return 0, 1
	}
	groups := shard.Groups(s.cfg.ShardDatasetIDs, req.Shards, req.Replication)
	return shard.GroupIndex(groups, req.Owners), len(groups)
}

// partialEnrich computes (or serves cached) the slice tallies for one
// canonical selection, already gob-encoded like the search partials. A
// group-scoped key carries the topology generation, replication factor
// and owner tuple: after a membership change the group list re-derives and
// stale slice tallies become unreachable rather than wrong.
func (s *Server) partialEnrich(ctx context.Context, sel []string, req *shard.EnrichRequest) ([]byte, string, error) {
	return s.cachedPartial(ctx, groupEnrichKey(req, sel), func() (any, error) {
		gi, slices := s.enrichSlice(req)
		if gi < 0 {
			return nil, fmt.Errorf("owner tuple %v is not an ownership group of this catalog", req.Owners)
		}
		return s.cfg.Enricher.PartialAnalyzeCtx(ctx, sel, gi, slices)
	})
}

// handleShardEnrichCatalog serves GET /api/shard/v1/enrich/catalog: the
// term catalog (fingerprint, background size, term ids/names) a
// coordinator merges partial tallies under. Fetched once per membership
// generation, so no caching is needed here.
func (s *Server) handleShardEnrichCatalog(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s.cfg.Enricher.Catalog()); err != nil {
		s.encodeFailures.Add(1)
		s.writeJSONError(w, http.StatusInternalServerError, codeEncodeFailed, "catalog encode failed: "+err.Error())
		return
	}
	w.Header().Set("Content-Type", shard.ContentType)
	_, _ = w.Write(buf.Bytes())
}

// scatterValue is the cached unit of the coordinator search path: the
// merged result plus the scatter metadata it was merged under.
type scatterValue struct {
	res  *spell.Result
	meta shard.Meta
}

func scatterCost(v any) int64 { return searchCost(v.(*scatterValue).res) + 64 }

// degraded implements degradable: a merge missing a shard is never cached.
func (sv *scatterValue) degraded() bool { return sv.meta.Degraded }

// scatterSearch is searchWith's coordinator branch: scatter over the
// shard backends, merge with global renormalization, and cache the merged
// result keyed by canonical query + shard-set generation — a coordinator
// restarted against a different topology can never replay merges of the
// old one. Degraded merges (a shard missing) are served but never cached:
// cached, they would keep answering for the survivor subset long after
// the shard recovered (scatterValue is degradable). Coalescing still holds
// — concurrent identical queries scatter once.
func (s *Server) scatterSearch(ctx context.Context, ep *endpointStats, ids []string, opt spell.Options) (*spell.Result, *shard.Meta, string, error) {
	key := fmt.Sprintf("scatter\x1f%016x\x1f%d\x1f%t\x1f%t\x1f%s",
		s.cfg.Scatter.Generation(), opt.MaxGenes, opt.IncludeQuery, opt.UniformWeights, joinIDs(ids))
	v, disp, err := s.cachedDo(ctx, ep, key, scatterCost, func() (any, error) {
		res, meta, serr := s.cfg.Scatter.SearchCtx(ctx, ids, opt)
		if serr != nil {
			return nil, serr
		}
		return &scatterValue{res: res, meta: meta}, nil
	})
	if err != nil {
		return nil, nil, disp, err
	}
	sv := v.(*scatterValue)
	meta := sv.meta
	return sv.res, &meta, disp, nil
}

// scatterSearchResponse is the /api/search body in coordinator mode: the
// usual result plus the explicit degraded flag and shard tally.
type scatterSearchResponse struct {
	*spell.Result
	shard.Meta
}

// enrichScatterValue is the cached unit of the coordinator enrich path.
type enrichScatterValue struct {
	res  *shard.EnrichResult
	meta shard.Meta
}

func enrichScatterCost(v any) int64 {
	sv := v.(*enrichScatterValue)
	n := enrichCost(sv.res.Results) + 128
	for g := range sv.res.InBackground {
		n += int64(len(g)) + 24
	}
	return n
}

// scatterEnrich is handleEnrich's coordinator compute path: ask the fleet
// for the selection's whole-background tallies, merge them exactly, and
// cache the table keyed by the result-shaping options, the canonical
// selection and the shard-set generation. A fleet enrichment is never
// degraded, so every success is cacheable.
func (s *Server) scatterEnrich(ctx context.Context, genes []string, opt golem.Options) (*shard.EnrichResult, *shard.Meta, string, error) {
	sel := spell.CanonicalQuery(genes)
	key := fmt.Sprintf("escatter\x1f%016x\x1f%d\x1f%g\x1f%s",
		s.cfg.Scatter.Generation(), opt.MinSelected, opt.MaxPValue, joinIDs(sel))
	v, disp, err := s.cachedDo(ctx, &s.statEnrich, key, enrichScatterCost, func() (any, error) {
		res, meta, serr := s.cfg.Scatter.EnrichCtx(ctx, sel, opt)
		if serr != nil {
			return nil, serr
		}
		return &enrichScatterValue{res: res, meta: meta}, nil
	})
	if err != nil {
		return nil, nil, disp, err
	}
	sv := v.(*enrichScatterValue)
	meta := sv.meta
	return sv.res, &meta, disp, nil
}

// fleetState is the /api/admin/fleet body: the live membership and the
// topology identity a client needs to reason about it.
type fleetState struct {
	Shards      []string `json:"shards"`
	Generation  string   `json:"generation"`
	Replication int      `json:"replication"`
	Bumps       int64    `json:"membership_bumps"`
	Draining    []string `json:"draining,omitempty"`
}

// fleetRequest is the POST /api/admin/fleet body.
type fleetRequest struct {
	Action string `json:"action"` // "add", "remove", "drain" or "undrain"
	Shard  string `json:"shard"`
}

// fleetAuthorized checks the fleet admin token (Authorization: Bearer or
// X-Fleet-Token) in constant time. An empty configured token refuses
// everything: membership mutation is opt-in, never open by default.
func (s *Server) fleetAuthorized(r *http.Request) bool {
	if s.cfg.FleetToken == "" {
		return false
	}
	tok := strings.TrimPrefix(r.Header.Get("Authorization"), "Bearer ")
	if tok == "" || tok == r.Header.Get("Authorization") {
		tok = r.Header.Get("X-Fleet-Token")
	}
	return subtle.ConstantTimeCompare([]byte(tok), []byte(s.cfg.FleetToken)) == 1
}

// handleFleet serves /api/admin/fleet on a coordinator: GET reports the
// live membership, POST {"action":"add"|"remove","shard":"..."} mutates
// it at runtime. A successful mutation bumps the membership generation,
// which re-derives ownership groups on the next scatter and invalidates
// every topology-keyed cache entry; a removed shard stops receiving
// scatters immediately and can drain out through its SIGTERM handler.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	if !s.fleetAuthorized(r) {
		s.writeJSONError(w, http.StatusForbidden, codeForbidden, "fleet admin token required")
		return
	}
	m := s.cfg.Scatter.Membership()
	state := func(shards []string, gen uint64) fleetState {
		return fleetState{
			Shards:      shards,
			Generation:  fmt.Sprintf("%016x", gen),
			Replication: s.cfg.Scatter.Replication(),
			Bumps:       m.Bumps(),
			Draining:    s.cfg.Scatter.DrainingShards(),
		}
	}
	switch r.Method {
	case http.MethodGet:
		shards, gen := m.Snapshot()
		s.writeJSON(w, http.StatusOK, state(shards, gen))
	case http.MethodPost:
		var req fleetRequest
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, "bad fleet request: "+err.Error())
			return
		}
		var (
			shards []string
			gen    uint64
			err    error
		)
		switch req.Action {
		case "add":
			shards, gen, err = m.Add(req.Shard)
		case "remove":
			// Removal also clears any drain mark: the identity may return
			// later as a fresh, healthy member.
			shards, gen, err = m.Remove(req.Shard)
			if err == nil {
				s.cfg.Scatter.SetDraining(req.Shard, false)
			}
		case "drain", "undrain":
			// Demote (or restore) a member in replica ordering without a
			// membership change: no generation bump, caches stay valid, the
			// shard just stops being anyone's first choice.
			s.cfg.Scatter.SetDraining(req.Shard, req.Action == "drain")
			shards, gen = m.Snapshot()
		default:
			s.writeJSONError(w, http.StatusBadRequest, codeBadParameter, `action must be "add", "remove", "drain" or "undrain"`)
			return
		}
		if err != nil {
			s.writeJSONError(w, http.StatusUnprocessableEntity, codeUnprocessable, err.Error())
			return
		}
		s.writeJSON(w, http.StatusOK, state(shards, gen))
	default:
		s.writeJSONError(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, "GET the fleet state or POST a membership change")
	}
}
