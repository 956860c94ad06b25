package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/spellweb"
)

// span is one timed interval at a layer boundary. Every span of one op
// shares Op; the op span's ID is Op+1 and every other span hangs below it.
// Layer marks the replayed span that stands for the work the daemon itself
// delegated for this op (zero when the response came from a cache).
type span struct {
	ID     int64     `json:"id"`
	Parent int64     `json:"parent"`
	Op     int64     `json:"op"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Layer  bool      `json:"layer,omitempty"`
	Bytes  int       `json:"bytes,omitempty"`
	Rows   int       `json:"rows,omitempty"`
	SelfMS float64   `json:"self_ms"`
}

func (s *span) ms() float64 { return msBetween(s.Start, s.End) }

// recorder keeps spans in memory; they are written out after the run.
type recorder struct {
	mu    sync.Mutex
	next  int64
	spans []*span
}

// firstChildID leaves the IDs below it to op spans (ID = op+1).
const firstChildID = 1 << 32

func newRecorder() *recorder { return &recorder{next: firstChildID} }

// add records a span and returns its ID. A span with parent 0 is the op
// span of op.
func (r *recorder) add(parent, op int64, name string, start, end time.Time) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := op + 1
	if parent != 0 {
		id = r.next
		r.next++
	}
	r.spans = append(r.spans, &span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// timed runs f and records it as a child span of op's span. Only the
// replay, which runs on one goroutine, calls it.
func (r *recorder) timed(op int64, name string, f func() error) (*span, error) {
	start := time.Now()
	err := f()
	end := time.Now()
	r.add(op+1, op, name, start, end)
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[len(r.spans)-1], err
}

// selfTimes sets each span's SelfMS: its duration minus the part of its
// interval covered by its children.
func selfTimes(spans []*span) {
	kids := map[int64][]*span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for _, p := range spans {
		var iv [][2]time.Time
		for _, c := range kids[p.ID] {
			lo, hi := c.Start, c.End
			if lo.Before(p.Start) {
				lo = p.Start
			}
			if hi.After(p.End) {
				hi = p.End
			}
			if hi.After(lo) {
				iv = append(iv, [2]time.Time{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
		var covered time.Duration
		var curLo, curHi time.Time
		for k, x := range iv {
			switch {
			case k == 0:
				curLo, curHi = x[0], x[1]
			case x[0].After(curHi):
				covered += curHi.Sub(curLo)
				curLo, curHi = x[0], x[1]
			case x[1].After(curHi):
				curHi = x[1]
			}
		}
		if len(iv) > 0 {
			covered += curHi.Sub(curLo)
		}
		p.SelfMS = p.ms() - float64(covered)/float64(time.Millisecond)
	}
}

// serverSelfMS returns, per op that has an HTTP span, the daemon's own time:
// the HTTP span minus the replayed layer spans that stand for work the
// daemon delegated on that op.
func serverSelfMS(spans []*span) map[int64]float64 {
	httpMS := map[int64]float64{}
	layerMS := map[int64]float64{}
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "http."):
			httpMS[s.Op] = s.ms()
		case s.Layer:
			layerMS[s.Op] += s.ms()
		}
	}
	out := make(map[int64]float64, len(httpMS))
	for op, h := range httpMS {
		out[op] = h - layerMS[op]
	}
	return out
}

func writeSpans(path string, spans []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replay re-runs one op's inputs through the layer functions directly,
// recording a span per layer call below the op's span. When the daemon ran
// the layer for this op (its response was a cache miss or a coalesced
// wait), the top layer spans are marked Layer and count against the HTTP
// span for server self time.
func replay(ctx context.Context, sys *system, rec *recorder, o *outcome) error {
	op := int64(o.seq)
	q, err := url.ParseQuery(o.op.Path[strings.IndexByte(o.op.Path, '?')+1:])
	if err != nil {
		return err
	}
	computed := o.cache == "miss" || o.cache == "coalesced"
	mark := func(s *span) { s.Layer = computed }
	switch o.op.Endpoint {
	case "search":
		ids := spellweb.ParseQuery(q.Get("q"))
		opt := spell.Options{MaxGenes: atoiOr(q.Get("top"), 0), IncludeQuery: true}
		if sys.coord != nil {
			s, err := rec.timed(op, "shard.scatter.search", func() error {
				_, _, err := sys.coord.SearchCtx(ctx, ids, opt)
				return err
			})
			mark(s)
			if err != nil {
				return err
			}
			return replaySearchScatter(ctx, sys, rec, op, ids, opt)
		}
		s, err := rec.timed(op, "spell.search", func() error {
			_, err := sys.engine.Search(ids, opt)
			return err
		})
		mark(s)
		return err
	case "enrich":
		genes := spellweb.ParseQuery(q.Get("genes"))
		opt := golem.Options{MinSelected: 1}
		if sys.coord != nil {
			s, err := rec.timed(op, "shard.scatter.enrich", func() error {
				_, _, err := sys.coord.EnrichCtx(ctx, genes, opt)
				return err
			})
			mark(s)
			if err != nil {
				return err
			}
			return replayEnrichScatter(ctx, sys, rec, op, genes, opt)
		}
		s, err := rec.timed(op, "golem.analyze", func() error {
			_, err := sys.enricher.AnalyzeCtx(ctx, genes, opt)
			return err
		})
		mark(s)
		return err
	case "heatmap":
		t, err := parseTile(q)
		if err != nil {
			return err
		}
		cd := sys.panes[t.dataset]
		n := len(cd.DisplayOrder)
		t.to = min(t.to, n)
		var rows [][]float64
		level := autoLevel(t.to-t.from, t.h, core.NumPyramidLevels(n))
		s, _ := rec.timed(op, "core.slab", func() error {
			rows = tileSlab(cd, t, level)
			return nil
		})
		mark(s)
		s.Rows = len(rows)
		var raster time.Duration
		var pngBytes []byte
		s, err = rec.timed(op, "render.tile", func() error {
			start := time.Now()
			c := rasterOnly(t, rows)
			raster = time.Since(start)
			var buf bytes.Buffer
			err := c.EncodePNG(&buf)
			pngBytes = buf.Bytes()
			return err
		})
		mark(s)
		s.Bytes = len(pngBytes)
		rec.add(s.ID, op, "render.raster", s.Start, s.Start.Add(raster))
		rec.add(s.ID, op, "render.png", s.Start.Add(raster), s.End)
		return err
	}
	return fmt.Errorf("unknown endpoint %q", o.op.Endpoint)
}

// gobRoundTrip encodes v and decodes it into dst, recording both halves.
func gobRoundTrip(rec *recorder, op int64, kind string, v, dst any) error {
	var buf bytes.Buffer
	s, err := rec.timed(op, "shard.gob_encode."+kind, func() error { return gob.NewEncoder(&buf).Encode(v) })
	if err != nil {
		return err
	}
	s.Bytes = buf.Len()
	_, err = rec.timed(op, "shard.gob_decode."+kind, func() error { return gob.NewDecoder(&buf).Decode(dst) })
	return err
}

// replaySearchScatter replays a fleet search the way the coordinator runs
// it: one PartialSearchSubsetCtx per ownership group on the group's primary
// replica, the gob wire both ways, and spell.Merge.
func replaySearchScatter(ctx context.Context, sys *system, rec *recorder, op int64, ids []string, opt spell.Options) error {
	ids = spell.CanonicalQuery(ids)
	groups := shard.Groups(sys.datasetIDs, sys.shardIDs, daemonReplication)
	parts := make([]spell.Partial, 0, len(groups))
	for _, owners := range groups {
		req := shard.SearchRequest{Query: ids, Shards: sys.shardIDs, Replication: daemonReplication, Owners: owners}
		if err := gobRoundTrip(rec, op, "request", req, &shard.SearchRequest{}); err != nil {
			return err
		}
		primary := owners[0]
		subset := localIndexes(sys.shardHoldings[primary], shard.GroupIndexes(sys.datasetIDs, sys.shardIDs, daemonReplication, owners))
		var p *spell.Partial
		if _, err := rec.timed(op, "spell.partial", func() error {
			var err error
			p, err = sys.shardEngines[primary].PartialSearchSubsetCtx(ctx, ids, subset, spell.Options{})
			return err
		}); err != nil {
			return err
		}
		var got spell.Partial
		if err := gobRoundTrip(rec, op, "partial", p, &got); err != nil {
			return err
		}
		parts = append(parts, got)
	}
	_, err := rec.timed(op, "spell.merge", func() error {
		_, err := spell.Merge(parts, opt)
		return err
	})
	return err
}

// replayEnrichScatter replays a fleet enrichment: background slice gi of G
// per ownership group, the gob wire both ways, and golem.MergeCounts.
func replayEnrichScatter(ctx context.Context, sys *system, rec *recorder, op int64, genes []string, opt golem.Options) error {
	genes = spell.CanonicalQuery(genes)
	groups := shard.Groups(sys.datasetIDs, sys.shardIDs, daemonReplication)
	parts := make([]*golem.PartialCounts, 0, len(groups))
	var cat *golem.TermCatalog
	for gi, owners := range groups {
		req := shard.EnrichRequest{Selection: genes, Shards: sys.shardIDs, Replication: daemonReplication, Owners: owners}
		if err := gobRoundTrip(rec, op, "request", req, &shard.EnrichRequest{}); err != nil {
			return err
		}
		e := sys.shardEnrich[owners[0]]
		cat = e.Catalog()
		var p *golem.PartialCounts
		if _, err := rec.timed(op, "golem.partial", func() error {
			var err error
			p, err = e.PartialAnalyzeCtx(ctx, genes, gi, len(groups))
			return err
		}); err != nil {
			return err
		}
		got := &golem.PartialCounts{}
		if err := gobRoundTrip(rec, op, "partial", p, got); err != nil {
			return err
		}
		parts = append(parts, got)
	}
	_, err := rec.timed(op, "golem.merge", func() error {
		_, err := golem.MergeCounts(cat, parts, opt)
		return err
	})
	return err
}

// localIndexes maps global dataset indexes to positions in a shard's
// holdings.
func localIndexes(holdings, global []int) []int {
	pos := make(map[int]int, len(holdings))
	for li, gi := range holdings {
		pos[gi] = li
	}
	out := make([]int, 0, len(global))
	for _, gi := range global {
		if li, ok := pos[gi]; ok {
			out = append(out, li)
		}
	}
	return out
}

// counters are the daemon-side counter deltas across the traced phase.
type counters struct {
	before, after server.StatsSnapshot
	cBefore       shard.StatsSnapshot
	cAfter        shard.StatsSnapshot
}

func (c *counters) endpoint(name string) (d server.EndpointSnapshot) {
	a, b := c.after.Endpoints[name], c.before.Endpoints[name]
	d.Requests = a.Requests - b.Requests
	d.CacheHits = a.CacheHits - b.CacheHits
	d.CacheMisses = a.CacheMisses - b.CacheMisses
	d.Coalesced = a.Coalesced - b.Coalesced
	d.Computed = a.Computed - b.Computed
	d.Rejected = a.Rejected - b.Rejected
	return d
}

func (c *counters) prefetch() (d server.PrefetchInfo) {
	a, b := c.after.Prefetch, c.before.Prefetch
	if a == nil || b == nil {
		return d
	}
	d.Rendered = a.Rendered - b.Rendered
	d.Served = a.Served - b.Served
	d.Shed = a.Shed - b.Shed
	d.EvictedUnused = a.EvictedUnused - b.EvictedUnused
	return d
}

// replicas sums the per-replica scatter counters' deltas.
func (c *counters) replicas() (d shard.ShardSnapshot) {
	sum := func(s shard.StatsSnapshot, sign int64) {
		for _, r := range s.Shards {
			d.Requests += sign * r.Requests
			d.Failovers += sign * r.Failovers
			d.Retries += sign * r.Retries
			d.Hedges += sign * r.Hedges
		}
	}
	sum(c.cAfter, 1)
	sum(c.cBefore, -1)
	return d
}
