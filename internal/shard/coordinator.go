package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"forestview/internal/spell"
)

// ErrAllShardsFailed reports a scatter in which no ownership group could
// be served: there is nothing to merge and nothing to degrade to. The
// daemon maps it to 503 (retryable full outage), distinct from a query
// error (422).
var ErrAllShardsFailed = errors.New("shard: every shard failed")

// ErrDegradedUnresolved reports a degraded scatter whose *surviving*
// shards measured none of the query genes: the unreachable shards may
// hold them, so the honest answer is "retry later" (503), not the
// single-process "your genes don't exist" query error (422) that the
// same merge outcome means when every shard answered.
var ErrDegradedUnresolved = errors.New("shard: query genes unresolved — unreachable shards may hold them")

// Config assembles a Coordinator.
type Config struct {
	// Shards are the initial fleet members, by identity — the exact
	// strings the shard daemons were booted with in their -shards lists
	// (rendezvous ownership hashes these, so both sides must agree
	// byte-for-byte). Runtime membership changes go through Membership.
	Shards []string
	// Replication is the ownership factor R: every dataset is owned by its
	// top-R rendezvous shards and any R-1 failures lose nothing (default
	// 1, the single-owner fleet). Shard daemons must be booted with the
	// same factor, or coverage gaps surface as degraded merges.
	Replication int
	// Resolve turns a shard identity into a dial URL (default: trim, and
	// prefix "http://" unless a scheme is present — identities that are
	// themselves addresses). In-process tests resolve logical names to
	// httptest listeners with it.
	Resolve func(identity string) string
	// Client issues the scatter requests (default: a plain http.Client;
	// deadlines come from per-attempt contexts, not a client timeout).
	Client *http.Client
	// Deadline bounds each shard attempt (default 10s). A shard that
	// cannot answer within it is treated as failed for this query — the
	// attempt fails over to the next replica rather than waiting.
	Deadline time.Duration
	// Retry gives each ownership group one extra attempt (against its
	// primary replica, with a fresh deadline) after every replica failed.
	Retry bool
	// HedgeAfter, when positive, fires a duplicate request for a group
	// whose in-flight attempt has not answered after this delay, taking
	// whichever returns first. Under replication the hedge goes to the
	// next *untried* replica — true failover for tail latency and host
	// death alike; with a single owner it duplicates to the same backend,
	// covering tail latency only (GC pauses, a lost packet), as before.
	HedgeAfter time.Duration
	// RetryBackoff shapes the jittered delay before the last-resort group
	// retry and between failed scavenge attempts (zero fields default to
	// 50ms base, 1s max, factor 2). Immediate retries re-dial a
	// still-sick shard; a short backoff lets transient faults clear.
	RetryBackoff Backoff
	// BreakerThreshold is the consecutive-failure count that trips a
	// replica's circuit breaker open (default 3; negative disables the
	// breaker). While open, scatter attempts skip the replica — its
	// groups are served by the other replicas — until a jittered backoff
	// window elapses and a half-open probe is admitted.
	BreakerThreshold int
	// BreakerBackoff shapes the breaker's open window, growing with
	// consecutive trips (zero fields default to 200ms base, 15s max,
	// factor 2).
	BreakerBackoff Backoff
	// InfoFailureCooldown bounds how often a failing compendium-info
	// probe round is retried (default 15s; negative disables the
	// cooldown, so every caller re-probes). Cleared by a membership bump
	// or the first successful round.
	InfoFailureCooldown time.Duration
}

// NormalizeAddr is the default identity resolver: an address-like
// identity ("host:port", with or without a scheme) becomes a base URL.
func NormalizeAddr(identity string) string {
	s := strings.TrimRight(strings.TrimSpace(identity), "/")
	if !strings.Contains(s, "://") {
		s = "http://" + s
	}
	return s
}

// Coordinator scatters SPELL queries over a replicated shard fleet and
// merges the partials with global weight renormalization. It stays
// stateless about datasets — ownership is a pure function of the live
// shard list (see Owners), and the dataset catalog it partitions into
// ownership groups is fetched from any one shard and cached per
// membership generation. Safe for concurrent use.
type Coordinator struct {
	cfg        Config
	client     *http.Client
	resolve    func(string) string
	membership *Membership

	counters sync.Map // shard identity -> *shardCounters
	rr       atomic.Uint64
	degraded atomic.Int64
	outages  atomic.Int64

	// draining marks replicas an operator (or the shard's own info
	// status) has flagged as leaving: orderReplicas demotes them to
	// last-resort so planned maintenance drains query load before the
	// membership bump. Keyed by identity; no generation semantics — a
	// mark survives until cleared (undrain, re-add, or remove).
	draining sync.Map // shard identity -> struct{}

	// catalog caches the ownership-group derivation per membership
	// generation; catalogMu serializes the fetch that fills it.
	catalog   atomic.Pointer[catalogState]
	catalogMu sync.Mutex

	// ecat caches the enrichment term catalog (golem.TermCatalog) per
	// membership generation, fetched from any capable shard; ecatMu
	// serializes the fetch.
	ecat   atomic.Pointer[enrichCatalogState]
	ecatMu sync.Mutex

	info atomic.Pointer[infoState]

	// infoMu serializes info probes (at most one fan-out in flight);
	// infoFailedAt/infoErr remember the last failed round so that, during
	// an outage, /api/stats and page renders get the cached error
	// immediately instead of stacking shard probes behind the deadline.
	// A membership bump clears the cooldown: removing the dead member is
	// exactly what should make info answerable again.
	infoMu       sync.Mutex
	infoFailedAt time.Time
	infoErr      error
	infoErrGen   uint64
}

// shardCounters is one backend's cumulative scatter accounting, plus its
// circuit breaker (per-replica state lives with per-replica counters).
type shardCounters struct {
	requests     atomic.Int64
	errors       atomic.Int64
	retries      atomic.Int64
	hedges       atomic.Int64
	failovers    atomic.Int64 // attempts landed here after another replica failed or fell short
	hedgeWins    atomic.Int64 // hedged attempts whose answer was the one used
	breakerSkips atomic.Int64 // attempts skipped because the breaker was open
	inflight     atomic.Int64
	latencyUS    atomic.Int64
	maxUS        atomic.Int64
	breaker      breaker
}

func (s *shardCounters) observe(d time.Duration, failed bool) {
	s.requests.Add(1)
	if failed {
		s.errors.Add(1)
	}
	us := d.Microseconds()
	s.latencyUS.Add(us)
	for {
		cur := s.maxUS.Load()
		if us <= cur || s.maxUS.CompareAndSwap(cur, us) {
			break
		}
	}
}

// NewCoordinator validates the config and prepares the scatter state.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	m, err := NewMembership(cfg.Shards)
	if err != nil {
		return nil, err
	}
	shards, _ := m.Snapshot()
	if cfg.Replication == 0 {
		cfg.Replication = 1
	}
	if cfg.Replication < 1 {
		return nil, fmt.Errorf("shard: replication factor %d < 1", cfg.Replication)
	}
	if cfg.Replication > len(shards) {
		return nil, fmt.Errorf("shard: replication factor %d exceeds the %d-shard fleet", cfg.Replication, len(shards))
	}
	if cfg.Deadline <= 0 {
		cfg.Deadline = 10 * time.Second
	}
	cfg.RetryBackoff = cfg.RetryBackoff.withDefaults(defaultRetryBackoff)
	cfg.BreakerBackoff = cfg.BreakerBackoff.withDefaults(defaultBreakerBackoff)
	if cfg.BreakerThreshold == 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.InfoFailureCooldown == 0 {
		cfg.InfoFailureCooldown = 15 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	resolve := cfg.Resolve
	if resolve == nil {
		resolve = NormalizeAddr
	}
	return &Coordinator{
		cfg:        cfg,
		client:     client,
		resolve:    resolve,
		membership: m,
	}, nil
}

// Membership exposes the live shard list for runtime joins and leaves
// (the daemon's /api/admin/fleet endpoint drives it). Every bump
// re-derives ownership on the next scatter and invalidates the cached
// catalog and compendium info.
func (c *Coordinator) Membership() *Membership { return c.membership }

// Shards returns the live shard identities.
func (c *Coordinator) Shards() []string {
	shards, _ := c.membership.Snapshot()
	return shards
}

// Generation fingerprints the live shard topology; see the package
// function. The daemon bakes it into merged-result cache keys, so results
// merged over a previous membership are unreachable after a bump.
func (c *Coordinator) Generation() uint64 { return c.membership.Generation() }

// Replication returns the configured ownership factor R.
func (c *Coordinator) Replication() int { return c.cfg.Replication }

// replicationFor clamps the configured factor to the live fleet size (a
// fleet shrunk below R still serves, with as many replicas as exist).
func (c *Coordinator) replicationFor(nShards int) int {
	r := c.cfg.Replication
	if r > nShards {
		r = nShards
	}
	if r < 1 {
		r = 1
	}
	return r
}

func (c *Coordinator) counterFor(shard string) *shardCounters {
	if v, ok := c.counters.Load(shard); ok {
		return v.(*shardCounters)
	}
	v, _ := c.counters.LoadOrStore(shard, &shardCounters{})
	return v.(*shardCounters)
}

// SetDraining marks (or clears) a replica as draining: orderReplicas
// demotes marked replicas to last-resort, so a shard about to leave stops
// receiving primary traffic while it can still serve as a failover target.
// Driven by the daemon's fleet admin endpoint and by shard info statuses.
func (c *Coordinator) SetDraining(shard string, draining bool) {
	shard = normalizeIdentity(shard)
	if draining {
		c.draining.Store(shard, struct{}{})
	} else {
		c.draining.Delete(shard)
	}
}

// isDraining reports whether a replica carries the draining mark.
func (c *Coordinator) isDraining(shard string) bool {
	_, ok := c.draining.Load(shard)
	return ok
}

// DrainingShards lists the live members currently marked draining.
func (c *Coordinator) DrainingShards() []string {
	shards, _ := c.membership.Snapshot()
	var out []string
	for _, s := range shards {
		if c.isDraining(s) {
			out = append(out, s)
		}
	}
	return out
}

// breakerAllow consults a replica's breaker (a no-op pass when disabled).
// lastResort forces admission as a half-open probe: the caller has no
// other replica to send the group to, and an untried group is worse than
// probing a suspect shard.
func (c *Coordinator) breakerAllow(shard string, lastResort bool) (ok, probe bool) {
	if c.cfg.BreakerThreshold <= 0 {
		return true, false
	}
	return c.counterFor(shard).breaker.allow(time.Now(), lastResort)
}

// breakerObserve feeds an attempt outcome to the replica's breaker.
// Cancellation and "unsupported" are neutral: a hedge loser or caller
// hangup says nothing about the shard's health, and neither does a healthy
// shard without an ontology answering 404 on the enrich path, so they
// neither trip nor close anything (a neutral probe only releases the probe
// slot). Otherwise a dark shard's enrich traffic would open the breaker its
// search traffic shares.
func (c *Coordinator) breakerObserve(shard string, err error, probe bool) {
	if c.cfg.BreakerThreshold <= 0 {
		return
	}
	b := &c.counterFor(shard).breaker
	if errors.Is(err, context.Canceled) || errors.Is(err, errEnrichUnsupported) {
		if probe {
			b.clearProbe()
		}
		return
	}
	b.observe(err == nil, probe, time.Now(), c.cfg.BreakerThreshold, func(opens int) time.Duration {
		return c.cfg.BreakerBackoff.Delay(opens, rand.Float64)
	})
}

// Meta describes how a scatter went: the fleet it ran against, how many
// ownership groups (and distinct shards) contributed, and whether the
// merged result is degraded — renormalized over less than the full
// compendium because some group could not be served completely.
type Meta struct {
	ShardsOK    int  `json:"shards_ok"`
	ShardsTotal int  `json:"shards_total"`
	Degraded    bool `json:"degraded"`
	Replication int  `json:"replication,omitempty"`
	GroupsOK    int  `json:"groups_ok,omitempty"`
	GroupsTotal int  `json:"groups_total,omitempty"`
}

// catalogState is the per-generation ownership derivation: the global
// dataset list (from any shard's boot catalog) partitioned into ownership
// groups — the distinct ordered top-R owner tuples.
type catalogState struct {
	gen    uint64
	ids    []string
	groups []ownerGroup
}

// ownerGroup is one ownership group: the ordered replica tuple and how
// many datasets it covers.
type ownerGroup struct {
	owners []string
	count  int
}

func deriveCatalog(gen uint64, ids []string, shards []string, r int) *catalogState {
	cat := &catalogState{gen: gen, ids: ids}
	// Groups owns the group ordering — the same derivation shards apply to
	// a group-scoped SearchRequest.
	index := make(map[string]int)
	for _, owners := range Groups(ids, shards, r) {
		index[strings.Join(owners, "\x00")] = len(cat.groups)
		cat.groups = append(cat.groups, ownerGroup{owners: owners})
	}
	for _, id := range ids {
		cat.groups[index[strings.Join(Owners(id, shards, r), "\x00")]].count++
	}
	return cat
}

// catalogFor returns the ownership groups for the given membership
// snapshot, fetching the dataset catalog from any one live shard on the
// first scatter of a generation.
func (c *Coordinator) catalogFor(ctx context.Context, shards []string, gen uint64) (*catalogState, error) {
	if cat := c.catalog.Load(); cat != nil && cat.gen == gen {
		return cat, nil
	}
	c.catalogMu.Lock()
	defer c.catalogMu.Unlock()
	if cat := c.catalog.Load(); cat != nil && cat.gen == gen {
		return cat, nil
	}
	ids, err := c.fetchAnyCatalog(ctx, shards)
	if err != nil {
		return nil, err
	}
	cat := deriveCatalog(gen, ids, shards, c.replicationFor(len(shards)))
	c.catalog.Store(cat)
	return cat, nil
}

// fetchAnyCatalog asks every live shard for its boot catalog concurrently
// and takes the first complete answer — any one shard suffices, so a
// partly dead fleet can still be partitioned.
func (c *Coordinator) fetchAnyCatalog(ctx context.Context, shards []string) ([]string, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type fetch struct {
		ids []string
		err error
	}
	ch := make(chan fetch, len(shards))
	for _, s := range shards {
		go func(s string) {
			info, err := c.fetchOneInfo(fctx, s)
			if err != nil {
				ch <- fetch{err: fmt.Errorf("%s: %w", s, err)}
				return
			}
			if len(info.AllDatasetIDs) == 0 {
				ch <- fetch{err: fmt.Errorf("%s: shard reported no dataset catalog", s)}
				return
			}
			ch <- fetch{ids: info.AllDatasetIDs}
		}(s)
	}
	var firstErr error
	for range shards {
		f := <-ch
		if f.err == nil {
			return f.ids, nil
		}
		if firstErr == nil {
			firstErr = f.err
		}
	}
	return nil, firstErr
}

// SearchCtx scatters one query over the fleet's ownership groups: each
// group is served by one of its R replicas (picked by
// power-of-two-choices over in-flight counts), failing over to the
// remaining replicas on error or incomplete coverage. The partials merge
// with global renormalization. The merge is degraded only when some
// group could not be fully served — under replication that takes all R
// of its replicas failing; only a scatter in which no group was served at
// all returns ErrAllShardsFailed. A canceled caller context aborts the
// scatter with the context error.
func (c *Coordinator) SearchCtx(ctx context.Context, query []string, opt spell.Options) (*spell.Result, Meta, error) {
	shards, gen := c.membership.Snapshot()
	r := c.replicationFor(len(shards))
	meta := Meta{ShardsTotal: len(shards), Replication: r}
	query = spell.CanonicalQuery(query)
	if len(query) == 0 {
		return nil, meta, errors.New("spell: empty query")
	}
	cat, err := c.catalogFor(ctx, shards, gen)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, meta, cerr
		}
		c.outages.Add(1)
		return nil, meta, fmt.Errorf("%w (catalog: %v)", ErrAllShardsFailed, err)
	}
	meta.GroupsTotal = len(cat.groups)

	// One request body per group: same query, different ownership scope.
	bodies := make([][]byte, len(cat.groups))
	for gi, g := range cat.groups {
		var body bytes.Buffer
		if err := gob.NewEncoder(&body).Encode(SearchRequest{
			Query:       query,
			Shards:      shards,
			Replication: r,
			Owners:      g.owners,
		}); err != nil {
			return nil, meta, err
		}
		bodies[gi] = body.Bytes()
	}

	results := make([]groupResult, len(cat.groups))
	var wg sync.WaitGroup
	for gi := range cat.groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			g := cat.groups[gi]
			results[gi] = c.fetchGroup(ctx, shards, g, g.count,
				func(actx context.Context, shard string) (any, int, error) {
					p, err := c.doSearch(actx, shard, bodies[gi])
					if err != nil {
						return nil, 0, err
					}
					return p, g.count - len(p.Datasets), nil
				})
		}(gi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		// The caller hung up or timed out: report that, not a fabricated
		// outage — per-group errors here are all descendants of it.
		return nil, meta, err
	}

	parts := make([]spell.Partial, 0, len(results))
	contributors := make(map[string]bool)
	var firstErr error
	for gi, gr := range results {
		if gr.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("group %v: %w", cat.groups[gi].owners, gr.err)
		}
		if gr.payload == nil {
			continue
		}
		p := gr.payload.(*spell.Partial)
		if gr.missing == 0 {
			meta.GroupsOK++
		}
		// A best response with zero datasets (the serving shard held
		// nothing of the group — membership drift) adds nothing to the
		// merge and does not make its shard a contributor.
		if len(p.Datasets) > 0 {
			parts = append(parts, *p)
			contributors[gr.shard] = true
		}
	}
	meta.ShardsOK = len(contributors)
	if len(parts) == 0 {
		c.outages.Add(1)
		return nil, meta, fmt.Errorf("%w (first: %v)", ErrAllShardsFailed, firstErr)
	}
	meta.Degraded = meta.GroupsOK < meta.GroupsTotal
	if meta.Degraded {
		c.degraded.Add(1)
	}
	res, err := spell.Merge(parts, opt)
	if err != nil {
		if meta.Degraded && errors.Is(err, spell.ErrNoQueryGenes) {
			// The survivors can't rule the genes in OR out.
			err = fmt.Errorf("%w (%d of %d groups served: %v)",
				ErrDegradedUnresolved, meta.GroupsOK, meta.GroupsTotal, firstErr)
		}
		return nil, meta, err
	}
	return res, meta, nil
}

// groupResult is one ownership group's scatter outcome: the best payload
// obtained (lowest missing score), which shard served it, and the first
// error met along the way. The payload's concrete type belongs to the
// attempt function that produced it (*spell.Partial for search,
// *golem.PartialCounts for enrichment).
type groupResult struct {
	payload any
	shard   string
	missing int
	err     error
}

// attemptFn is one endpoint-specific shard attempt: it returns the decoded
// payload and a "missing" score (0 = the group is fully served; higher =
// failover-worthy shortfall, e.g. datasets the serving shard did not hold).
type attemptFn func(ctx context.Context, shard string) (payload any, missing int, err error)

// orderReplicas orders a group's replica tuple for attempts: draining
// replicas are demoted to the back in rank order (last-resort only — a
// draining shard still serves, but new primary traffic belongs on its
// successors), then the primary is picked by power-of-two-choices over the
// remaining replicas' in-flight counts (two rotating probes, least loaded
// wins), the rest following in rank order. With fewer than two candidates
// the tuple order stands.
func (c *Coordinator) orderReplicas(owners []string) []string {
	out := make([]string, 0, len(owners))
	var last []string
	for _, s := range owners {
		if c.isDraining(s) {
			last = append(last, s)
		} else {
			out = append(out, s)
		}
	}
	if len(out) >= 2 {
		n := c.rr.Add(1)
		l := uint64(len(out))
		i := int(n % l)
		j := int((n / l) % l)
		if i == j {
			j = (j + 1) % len(out)
		}
		pick := i
		if c.counterFor(out[j]).inflight.Load() < c.counterFor(out[pick]).inflight.Load() {
			pick = j
		}
		picked := out[pick]
		copy(out[1:pick+1], out[:pick])
		out[0] = picked
	}
	return append(out, last...)
}

type attemptOutcome struct {
	shard   string
	hedge   bool
	payload any
	missing int
	err     error
}

// fetchGroup runs one ownership group's attempt discipline over an
// endpoint-specific attempt function (search partials and enrichment
// counts share it verbatim). Phase 1 walks the replica tuple: an error or
// an incomplete answer fails over to the next untried replica; a hedge (if
// configured) duplicates onto the next untried replica too, or onto the
// primary itself when none remain (the legacy single-owner hedge). If
// every replica failed outright, Retry grants the primary one extra
// attempt. Phase 2 — only when coverage is still incomplete, which
// consistent placement never triggers — scavenges the non-owner shards
// sequentially, because after a membership change without a data re-sync
// they may still hold the group's datasets from their boot-time assignment.
// The best answer wins; worst seeds the missing score an absent answer
// counts as. Enrichment passes the whole fleet as the group, so its walk
// covers every shard and never scavenges.
func (c *Coordinator) fetchGroup(ctx context.Context, shards []string, g ownerGroup, worst int, do attemptFn) groupResult {
	replicas := c.orderReplicas(g.owners)
	inGroup := make(map[string]bool, len(replicas))
	for _, s := range replicas {
		inGroup[s] = true
	}

	best := groupResult{missing: worst}
	resCh := make(chan attemptOutcome, len(replicas)+2)
	var cancels []context.CancelFunc
	defer func() {
		for _, cancel := range cancels {
			cancel()
		}
	}()
	launch := func(shard string, hedge, probe bool) {
		actx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
		cancels = append(cancels, cancel)
		go func() {
			sc := c.counterFor(shard)
			sc.inflight.Add(1)
			t0 := time.Now()
			p, missing, err := do(actx, shard)
			sc.inflight.Add(-1)
			sc.observe(time.Since(t0), err != nil)
			c.breakerObserve(shard, err, probe)
			resCh <- attemptOutcome{shard: shard, hedge: hedge, payload: p, missing: missing, err: err}
		}()
	}

	next := 0
	launchNext := func(hedge, failover bool) bool {
		for next < len(replicas) && ctx.Err() == nil {
			s := replicas[next]
			next++
			ok, probe := c.breakerAllow(s, false)
			if !ok {
				c.counterFor(s).breakerSkips.Add(1)
				continue
			}
			if failover {
				c.counterFor(s).failovers.Add(1)
			}
			if hedge {
				c.counterFor(s).hedges.Add(1)
			}
			launch(s, hedge, probe)
			return true
		}
		return false
	}
	outstanding := 0
	if launchNext(false, false) { // the p2c primary
		outstanding = 1
	} else if len(replicas) > 0 && ctx.Err() == nil {
		// Availability floor: every replica's breaker refused admission.
		// Force a half-open probe of the primary rather than fail the
		// group without a single attempt.
		s := replicas[0]
		_, probe := c.breakerAllow(s, true)
		launch(s, false, probe)
		outstanding = 1
	}

	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		timer := time.NewTimer(c.cfg.HedgeAfter)
		defer timer.Stop()
		hedgeC = timer.C
	}
	for outstanding > 0 {
		select {
		case o := <-resCh:
			outstanding--
			if o.err != nil {
				if best.err == nil {
					best.err = fmt.Errorf("%s: %w", o.shard, o.err)
				}
				if launchNext(false, true) {
					outstanding++
				}
				continue
			}
			if o.hedge {
				c.counterFor(o.shard).hedgeWins.Add(1)
			}
			if best.payload == nil || o.missing < best.missing {
				best.payload, best.shard, best.missing = o.payload, o.shard, o.missing
			}
			if best.missing == 0 {
				return best // deferred cancels stop any stragglers
			}
			// Incomplete coverage (membership drift): try the next replica.
			if launchNext(false, true) {
				outstanding++
			}
		case <-hedgeC:
			hedgeC = nil
			if ctx.Err() != nil {
				continue
			}
			if launchNext(true, false) {
				outstanding++
			} else if len(replicas) > 0 && next >= len(replicas) && outstanding > 0 {
				// Every replica already tried or in flight: duplicate the
				// primary, the legacy tail-latency hedge.
				s := replicas[0]
				c.counterFor(s).hedges.Add(1)
				launch(s, true, false)
				outstanding++
			}
		}
	}

	if best.payload == nil && c.cfg.Retry && ctx.Err() == nil && len(replicas) > 0 &&
		sleepCtx(ctx, c.cfg.RetryBackoff.Delay(0, rand.Float64)) {
		// Last-resort retry, after a jittered backoff (an immediate retry
		// just re-dials a still-sick shard) and forced through the breaker
		// as a probe — there is nowhere else to send this group.
		s := replicas[0]
		_, probe := c.breakerAllow(s, true)
		sc := c.counterFor(s)
		sc.retries.Add(1)
		actx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
		defer cancel()
		sc.inflight.Add(1)
		t0 := time.Now()
		p, missing, err := do(actx, s)
		sc.inflight.Add(-1)
		sc.observe(time.Since(t0), err != nil)
		c.breakerObserve(s, err, probe)
		if err == nil {
			best.payload, best.shard, best.missing = p, s, missing
		} else if best.err == nil {
			best.err = fmt.Errorf("%s: %w", s, err)
		}
	}

	// Scavenge pass: the owners couldn't fully serve the group. After a
	// membership change the data may still sit on shards outside the new
	// tuple (boot-time placement), so ask the rest of the fleet — cheap,
	// cached empty answers in the common case — and keep the best.
	scavFails := 0
	for _, s := range shards {
		if best.missing == 0 || ctx.Err() != nil {
			break
		}
		if inGroup[s] {
			continue
		}
		ok, probe := c.breakerAllow(s, false)
		if !ok {
			// Scavenging is speculative; a shard known to be sick is not
			// worth the attempt deadline.
			c.counterFor(s).breakerSkips.Add(1)
			continue
		}
		if scavFails > 0 && !sleepCtx(ctx, c.cfg.RetryBackoff.Delay(scavFails-1, rand.Float64)) {
			break
		}
		sc := c.counterFor(s)
		sc.failovers.Add(1)
		actx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
		sc.inflight.Add(1)
		t0 := time.Now()
		p, missing, err := do(actx, s)
		sc.inflight.Add(-1)
		sc.observe(time.Since(t0), err != nil)
		c.breakerObserve(s, err, probe)
		cancel()
		if err != nil {
			scavFails++
			if best.err == nil {
				best.err = fmt.Errorf("%s: %w", s, err)
			}
			continue
		}
		if best.payload == nil || missing < best.missing {
			best.payload, best.shard, best.missing = p, s, missing
		}
	}
	return best
}

// doSearch performs one HTTP attempt against a shard's SearchPath.
func (c *Coordinator) doSearch(ctx context.Context, shard string, reqBody []byte) (*spell.Partial, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.resolve(shard)+SearchPath, bytes.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("shard status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var p spell.Partial
	if err := gob.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("decoding partial: %w", err)
	}
	return &p, nil
}

// CompendiumInfo aggregates what the shard set holds.
type CompendiumInfo struct {
	Datasets int
	Genes    int // distinct gene IDs across the union of slices
}

// infoState pairs a cached compendium union with the membership
// generation it was probed under.
type infoState struct {
	gen  uint64
	info CompendiumInfo
}

// Info returns the union compendium description, fetching each live
// shard's InfoPath and caching a fully successful answer under the
// membership generation — a join or leave invalidates it, so dataset
// counts and the gene universe refresh with the fleet. While any live
// shard is unreachable the info stays uncached and the error is returned,
// so callers degrade to "unknown" rather than a wrong total; probes are
// serialized, and after a failed round further callers get that error for
// a cooldown (cleared by a membership bump) instead of re-probing a
// known-sick fleet.
func (c *Coordinator) Info(ctx context.Context) (CompendiumInfo, error) {
	shards, gen := c.membership.Snapshot()
	if cached := c.info.Load(); cached != nil && cached.gen == gen {
		return cached.info, nil
	}
	c.infoMu.Lock()
	defer c.infoMu.Unlock()
	if cached := c.info.Load(); cached != nil && cached.gen == gen {
		return cached.info, nil // filled while we waited on the lock
	}
	if c.infoErr != nil && c.infoErrGen == gen && c.cfg.InfoFailureCooldown > 0 &&
		time.Since(c.infoFailedAt) < c.cfg.InfoFailureCooldown {
		return CompendiumInfo{}, c.infoErr
	}
	info, err := c.fetchInfo(ctx, shards)
	if err != nil {
		c.infoFailedAt, c.infoErr, c.infoErrGen = time.Now(), err, gen
		return CompendiumInfo{}, err
	}
	c.infoErr = nil
	c.infoFailedAt = time.Time{}
	c.info.Store(&infoState{gen: gen, info: info})
	return info, nil
}

// fetchOneInfo fetches one shard's InfoPath under the attempt deadline.
func (c *Coordinator) fetchOneInfo(ctx context.Context, shard string) (*Info, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.resolve(shard)+InfoPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard status %d", resp.StatusCode)
	}
	var info Info
	if err := gob.NewDecoder(resp.Body).Decode(&info); err != nil {
		return nil, err
	}
	return &info, nil
}

// fetchInfo runs one probe round over every live shard. Dataset counts
// come from the union of reported dataset names (replicated slices
// overlap); shards predating DatasetIDs fall back to summed counts.
func (c *Coordinator) fetchInfo(ctx context.Context, shards []string) (CompendiumInfo, error) {
	infos := make([]*Info, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for si := range shards {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			infos[si], errs[si] = c.fetchOneInfo(ctx, shards[si])
		}(si)
	}
	wg.Wait()
	out := CompendiumInfo{}
	genes := make(map[string]bool)
	names := make(map[string]bool)
	sum := 0
	allNamed := true
	for si, info := range infos {
		if info == nil {
			return CompendiumInfo{}, fmt.Errorf("%s: %w", shards[si], errs[si])
		}
		if info.Status == StatusDraining {
			// A shard advertising drain demotes itself in replica ordering
			// even if no operator marked it here. Set-only: an "active"
			// status never clears an operator's explicit mark.
			c.SetDraining(shards[si], true)
		}
		sum += info.Datasets
		if info.Datasets > 0 && len(info.DatasetIDs) == 0 {
			allNamed = false
		}
		for _, n := range info.DatasetIDs {
			names[n] = true
		}
		for _, g := range info.GeneIDs {
			genes[g] = true
		}
	}
	if allNamed {
		out.Datasets = len(names)
	} else {
		out.Datasets = sum
	}
	out.Genes = len(genes)
	return out, nil
}

// StatsSnapshot is the scatter section of /api/stats.
type StatsSnapshot struct {
	// Generation is the live-membership fingerprint baked into
	// merged-result cache keys, in hex.
	Generation  string `json:"generation"`
	ShardsTotal int    `json:"shards_total"`
	// Replication is the configured ownership factor R.
	Replication int `json:"replication"`
	// MembershipBumps counts runtime joins and leaves since boot.
	MembershipBumps int64 `json:"membership_bumps"`
	// Groups is the number of ownership groups in the current catalog (0
	// until the first scatter of this generation derives it).
	Groups      int             `json:"groups"`
	Degraded    int64           `json:"degraded"`     // queries merged over less than full coverage
	FullOutages int64           `json:"full_outages"` // scatters in which no group was served
	Shards      []ShardSnapshot `json:"shards"`
}

// ShardSnapshot is one backend's cumulative counters plus its breaker and
// drain state.
type ShardSnapshot struct {
	Addr          string `json:"addr"`
	Requests      int64  `json:"requests"`
	Errors        int64  `json:"errors"`
	Retries       int64  `json:"retries"`
	Hedges        int64  `json:"hedges"`
	Failovers     int64  `json:"failovers"`
	HedgeWins     int64  `json:"hedge_wins"`
	InFlight      int64  `json:"in_flight"`
	MeanLatencyUS int64  `json:"mean_latency_us"`
	MaxLatencyUS  int64  `json:"max_latency_us"`
	// Draining marks a replica demoted to last-resort ordering.
	Draining bool `json:"draining,omitempty"`
	// Breaker is the replica's circuit state (closed / open / half-open;
	// empty when the breaker is disabled), with cumulative trip and
	// skipped-attempt counts.
	Breaker      string `json:"breaker,omitempty"`
	BreakerTrips int64  `json:"breaker_trips,omitempty"`
	BreakerSkips int64  `json:"breaker_skips,omitempty"`
}

// Stats snapshots the scatter counters for the live membership.
func (c *Coordinator) Stats() StatsSnapshot {
	shards, gen := c.membership.Snapshot()
	snap := StatsSnapshot{
		Generation:      fmt.Sprintf("%016x", gen),
		ShardsTotal:     len(shards),
		Replication:     c.cfg.Replication,
		MembershipBumps: c.membership.Bumps(),
		Degraded:        c.degraded.Load(),
		FullOutages:     c.outages.Load(),
	}
	if cat := c.catalog.Load(); cat != nil && cat.gen == gen {
		snap.Groups = len(cat.groups)
	}
	for _, addr := range shards {
		sc := c.counterFor(addr)
		s := ShardSnapshot{
			Addr:         addr,
			Requests:     sc.requests.Load(),
			Errors:       sc.errors.Load(),
			Retries:      sc.retries.Load(),
			Hedges:       sc.hedges.Load(),
			Failovers:    sc.failovers.Load(),
			HedgeWins:    sc.hedgeWins.Load(),
			InFlight:     sc.inflight.Load(),
			MaxLatencyUS: sc.maxUS.Load(),
			Draining:     c.isDraining(addr),
			BreakerSkips: sc.breakerSkips.Load(),
		}
		if c.cfg.BreakerThreshold > 0 {
			s.Breaker, s.BreakerTrips = sc.breaker.snapshot()
		}
		if s.Requests > 0 {
			s.MeanLatencyUS = sc.latencyUS.Load() / s.Requests
		}
		snap.Shards = append(snap.Shards, s)
	}
	return snap
}
