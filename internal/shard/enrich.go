package shard

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"forestview/internal/golem"
	"forestview/internal/spell"
)

// Distributed enrichment. A GOLEM background slice is a gene-arena word
// range, independent of which datasets a shard holds, so any shard with an
// enricher can tally the whole background in one pass. The coordinator
// therefore sends each enrichment as a single whole-background request —
// slice 0 of 1 — with every live shard as a candidate replica: the same
// fetchGroup discipline search uses (p2c choice, draining last, breaker,
// failover, hedge, retry) walks the fleet until one capable shard answers.
// One round trip instead of one per ownership group, and no partial
// coverage to disclose: an enrichment is exact or it fails.

// ErrNoEnrichment reports a fleet in which no reachable shard offers
// enrichment (no shard booted with an ontology, or every capable shard is
// down and the rest answered "unsupported"). The daemon maps it to the
// same 503 a single-process daemon without an ontology returns.
var ErrNoEnrichment = errors.New("shard: no reachable shard offers enrichment")

// errEnrichUnsupported marks a shard that answers HTTP but does not serve
// the enrichment endpoints — no ontology, or an older protocol version.
var errEnrichUnsupported = errors.New("shard does not serve enrichment")

// enrichCatalogState pairs a fetched term catalog with the membership
// generation it was fetched under.
type enrichCatalogState struct {
	gen uint64
	cat *golem.TermCatalog
}

// EnrichResult is the outcome of a fleet enrichment.
type EnrichResult struct {
	// Results is the exact analysis, bit-identical to a single-process
	// Analyze.
	Results []golem.Enrichment
	// Background is the universe size N.
	Background int
	// InBackground maps each canonicalized selection gene to whether the
	// universe knows it, taken from the partial's disclosure — the
	// coordinator needs no local enricher to report what was tested vs
	// ignored.
	InBackground map[string]bool
}

// EnrichCtx answers one enrichment selection from the fleet with a single
// whole-background request, served by whichever live shard the replica
// discipline picks (failing over across the whole fleet). The tallies merge
// through golem.MergeCounts against the fleet's term catalog, so the result
// is exact. Meta reports one group of one: the result is never degraded —
// if no capable shard answers, the call fails with ErrAllShardsFailed.
func (c *Coordinator) EnrichCtx(ctx context.Context, selection []string, opt golem.Options) (*EnrichResult, Meta, error) {
	shards, gen := c.membership.Snapshot()
	meta := Meta{ShardsTotal: len(shards), Replication: c.replicationFor(len(shards)), GroupsTotal: 1}
	sel := spell.CanonicalQuery(selection)
	if len(sel) == 0 {
		return nil, meta, errors.New("golem: empty selection")
	}
	ecat, err := c.enrichCatalogFor(ctx, shards, gen)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return nil, meta, cerr
		}
		if errors.Is(err, ErrNoEnrichment) {
			return nil, meta, err
		}
		c.outages.Add(1)
		return nil, meta, fmt.Errorf("%w (enrich catalog: %v)", ErrAllShardsFailed, err)
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(EnrichRequest{Selection: sel}); err != nil {
		return nil, meta, err
	}
	gr := c.fetchGroup(ctx, shards, ownerGroup{owners: shards}, 1,
		func(actx context.Context, shard string) (any, int, error) {
			p, err := c.doEnrich(actx, shard, body.Bytes())
			if err != nil {
				return nil, 0, err
			}
			// A partial from a differently-built enricher, or anything short
			// of the whole background, must fail over, not merge: exactness
			// beats availability here.
			if p.Fingerprint != ecat.Fingerprint {
				return nil, 0, fmt.Errorf("enricher fingerprint %016x, catalog has %016x",
					p.Fingerprint, ecat.Fingerprint)
			}
			if p.Slices != 1 || len(p.InBackground) != len(sel) {
				return nil, 0, fmt.Errorf("shard served slice %d/%d over %d genes, want the whole background over %d",
					p.Slice, p.Slices, len(p.InBackground), len(sel))
			}
			return p, 0, nil
		})
	if err := ctx.Err(); err != nil {
		return nil, meta, err
	}
	if gr.payload == nil {
		c.outages.Add(1)
		return nil, meta, fmt.Errorf("%w (%v)", ErrAllShardsFailed, gr.err)
	}
	meta.GroupsOK, meta.ShardsOK = 1, 1
	p := gr.payload.(*golem.PartialCounts)
	merged, err := golem.MergeCounts(ecat, []*golem.PartialCounts{p}, opt)
	if err != nil {
		return nil, meta, err
	}
	res := &EnrichResult{Results: merged, Background: p.BackgroundSize, InBackground: make(map[string]bool, len(sel))}
	for i, ok := range p.InBackground {
		res.InBackground[sel[i]] = ok
	}
	return res, meta, nil
}

// doEnrich performs one HTTP attempt against a shard's EnrichPath.
func (c *Coordinator) doEnrich(ctx context.Context, shard string, reqBody []byte) (*golem.PartialCounts, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.resolve(shard)+EnrichPath, bytes.NewReader(reqBody))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", ContentType)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errEnrichUnsupported
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("shard status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	var p golem.PartialCounts
	if err := gob.NewDecoder(resp.Body).Decode(&p); err != nil {
		return nil, fmt.Errorf("decoding partial counts: %w", err)
	}
	return &p, nil
}

// enrichCatalogFor returns the fleet's term catalog for the given
// membership snapshot, fetching it from any capable shard on the first
// enrichment of a generation.
func (c *Coordinator) enrichCatalogFor(ctx context.Context, shards []string, gen uint64) (*golem.TermCatalog, error) {
	if st := c.ecat.Load(); st != nil && st.gen == gen {
		return st.cat, nil
	}
	c.ecatMu.Lock()
	defer c.ecatMu.Unlock()
	if st := c.ecat.Load(); st != nil && st.gen == gen {
		return st.cat, nil
	}
	cat, err := c.fetchAnyEnrichCatalog(ctx, shards)
	if err != nil {
		return nil, err
	}
	c.ecat.Store(&enrichCatalogState{gen: gen, cat: cat})
	return cat, nil
}

// fetchAnyEnrichCatalog asks every live shard for its term catalog
// concurrently and takes the first complete answer. A fleet in which every
// *reachable* shard answers "unsupported" is ErrNoEnrichment (not an
// outage): nobody will ever serve this until a capable shard joins.
func (c *Coordinator) fetchAnyEnrichCatalog(ctx context.Context, shards []string) (*golem.TermCatalog, error) {
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type fetch struct {
		cat *golem.TermCatalog
		err error
	}
	ch := make(chan fetch, len(shards))
	for _, s := range shards {
		go func(s string) {
			cat, err := c.fetchOneEnrichCatalog(fctx, s)
			if err != nil {
				ch <- fetch{err: fmt.Errorf("%s: %w", s, err)}
				return
			}
			ch <- fetch{cat: cat}
		}(s)
	}
	var firstErr error
	unsupported := 0
	for range shards {
		f := <-ch
		if f.err == nil {
			return f.cat, nil
		}
		if errors.Is(f.err, errEnrichUnsupported) {
			unsupported++
		} else if firstErr == nil {
			firstErr = f.err
		}
	}
	if unsupported == len(shards) {
		return nil, ErrNoEnrichment
	}
	return nil, firstErr
}

// fetchOneEnrichCatalog fetches one shard's EnrichCatalogPath under the
// attempt deadline.
func (c *Coordinator) fetchOneEnrichCatalog(ctx context.Context, shard string) (*golem.TermCatalog, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.Deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, c.resolve(shard)+EnrichCatalogPath, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, errEnrichUnsupported
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("shard status %d", resp.StatusCode)
	}
	var cat golem.TermCatalog
	if err := gob.NewDecoder(resp.Body).Decode(&cat); err != nil {
		return nil, err
	}
	if len(cat.Terms) == 0 {
		return nil, errors.New("shard reported an empty term catalog")
	}
	return &cat, nil
}
