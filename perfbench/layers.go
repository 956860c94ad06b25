package main

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"strings"

	"forestview/internal/workload"
)

// replayEvery replays every replayEvery-th op of the traced phase through
// the layer functions.
const replayEvery = 4

// perLayer lists every per-layer metric with its unit. A traced run reports
// all of them on every workload; a layer the workload does not exercise
// reads 0.
var perLayer = []struct{ name, unit string }{
	{"workload.issue_lag_p95_ms", "ms"},
	{"workload.stalls", "count"},
	{"trace.overhead_ms", "ms"},
	{"trace.replayed_ops", "count"},
	{"server.self_ms", "ms"},
	{"server.search.requests", "count"},
	{"server.search.hit_rate", "fraction"},
	{"server.search.computed", "fraction"},
	{"server.enrich.requests", "count"},
	{"server.enrich.hit_rate", "fraction"},
	{"server.enrich.computed", "fraction"},
	{"server.coalesced", "count"},
	{"server.heatmap.requests", "count"},
	{"server.heatmap.warm_rate", "fraction"},
	{"server.heatmap.computed", "fraction"},
	{"server.heatmap.rejected", "count"},
	{"server.prefetch.rendered", "count"},
	{"server.prefetch.served", "count"},
	{"server.prefetch.shed", "count"},
	{"server.prefetch.evicted_unused", "count"},
	{"server.prefetch.useful_ratio", "fraction"},
	{"core.slab_rows_per_tile", "rows"},
	{"core.pyramid_build_ms", "ms"},
	{"render.tiles", "count"},
	{"render.raster_ms", "ms"},
	{"render.png_ms", "ms"},
	{"render.tile_bytes", "B"},
	{"cluster.build_ms", "ms"},
	{"spell.engine_build_ms", "ms"},
	{"golem.enricher_build_ms", "ms"},
	{"spell.searches", "count"},
	{"spell.search_p50_ms", "ms"},
	{"spell.search_p95_ms", "ms"},
	{"golem.analyses", "count"},
	{"golem.analyze_p50_ms", "ms"},
	{"golem.analyze_p95_ms", "ms"},
	{"spell.partial_ms", "ms"},
	{"spell.merge_ms", "ms"},
	{"golem.partial_ms", "ms"},
	{"golem.merge_ms", "ms"},
	{"shard.scatters", "count"},
	{"shard.scatter_ms", "ms"},
	{"shard.wire_bytes", "B"},
	{"shard.gob_encode_ms", "ms"},
	{"shard.gob_decode_ms", "ms"},
	{"shard.rtt_overhead_ms", "ms"},
	{"shard.groups_per_request", "count"},
	{"shard.replica_requests", "count"},
	{"shard.failovers", "count"},
	{"shard.retries", "count"},
	{"shard.hedges", "count"},
}

// tracedRun runs the traced phase with spans on, snapshots the daemon
// counters around it, replays a sample of its ops through the layers and
// fills the per-layer metrics. untraced is the preceding untraced phase of
// the same run, the baseline for the tracing overhead.
func tracedRun(ctx context.Context, cfg config, sys *system, client *http.Client, untraced []outcome, ops []workload.Op, rep *report) error {
	rec := newRecorder()
	var c counters
	c.before = sys.srv.Stats()
	if sys.coord != nil {
		c.cBefore = sys.coord.Stats()
	}
	res := runPhase(ctx, client, sys.url, ops, nil, rec)
	c.after = sys.srv.Stats()
	if sys.coord != nil {
		c.cAfter = sys.coord.Stats()
	}

	replayed := map[int64]bool{}
	for i := range res {
		if i%replayEvery != 0 || res[i].failed() {
			continue
		}
		if err := replay(ctx, sys, rec, &res[i]); err != nil {
			return fmt.Errorf("replay of %s: %w", res[i].op.Path, err)
		}
		replayed[int64(res[i].seq)] = true
	}
	selfTimes(rec.spans)
	path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := writeSpans(path, rec.spans); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	fmt.Fprintf(cfg.log, "wrote %d spans to %s\n", len(rec.spans), path)

	v := map[string]float64{}
	lagP95, stalls := generatorHealth(untraced)
	v["workload.issue_lag_p95_ms"], v["workload.stalls"] = lagP95, float64(stalls)
	v["trace.overhead_ms"] = median(okLatencies(res, "")) - median(okLatencies(untraced, ""))
	v["trace.replayed_ops"] = float64(len(replayed))

	var self []float64
	for op, ms := range serverSelfMS(rec.spans) {
		if replayed[op] {
			self = append(self, ms)
		}
	}
	v["server.self_ms"] = median(self)

	for _, ep := range []string{"search", "enrich", "heatmap"} {
		d := c.endpoint(ep)
		v["server."+ep+".requests"] = float64(d.Requests)
		v["server."+ep+".computed"] = ratio(d.Computed, d.Requests)
		switch ep {
		case "heatmap":
			v["server.heatmap.warm_rate"] = ratio(d.CacheHits, d.Requests)
			v["server.heatmap.rejected"] = float64(d.Rejected)
		default:
			v["server."+ep+".hit_rate"] = ratio(d.CacheHits, d.CacheHits+d.CacheMisses)
		}
		v["server.coalesced"] += float64(d.Coalesced)
	}
	pf := c.prefetch()
	v["server.prefetch.rendered"] = float64(pf.Rendered)
	v["server.prefetch.served"] = float64(pf.Served)
	v["server.prefetch.shed"] = float64(pf.Shed)
	v["server.prefetch.evicted_unused"] = float64(pf.EvictedUnused)
	v["server.prefetch.useful_ratio"] = ratio(pf.Served, pf.Rendered)
	rs := c.replicas()
	v["shard.replica_requests"] = float64(rs.Requests)
	v["shard.failovers"] = float64(rs.Failovers)
	v["shard.retries"] = float64(rs.Retries)
	v["shard.hedges"] = float64(rs.Hedges)

	v["core.pyramid_build_ms"] = sys.build.pyramid
	v["cluster.build_ms"] = sys.build.cluster
	v["spell.engine_build_ms"] = sys.build.engine
	v["golem.enricher_build_ms"] = sys.build.enricher

	byName := spansByName(rec.spans)
	v["core.slab_rows_per_tile"] = mean(field(byName["core.slab"], func(s *span) float64 { return float64(s.Rows) }))
	v["render.tiles"] = float64(len(byName["render.tile"]))
	v["render.raster_ms"] = median(durations(byName["render.raster"]))
	v["render.png_ms"] = median(durations(byName["render.png"]))
	v["render.tile_bytes"] = mean(field(byName["render.tile"], func(s *span) float64 { return float64(s.Bytes) }))
	searches := durations(byName["spell.search"])
	v["spell.searches"], v["spell.search_p50_ms"], v["spell.search_p95_ms"] = float64(len(searches)), quantile(searches, 0.5), quantile(searches, 0.95)
	analyses := durations(byName["golem.analyze"])
	v["golem.analyses"], v["golem.analyze_p50_ms"], v["golem.analyze_p95_ms"] = float64(len(analyses)), quantile(analyses, 0.5), quantile(analyses, 0.95)
	v["spell.partial_ms"] = median(durations(byName["spell.partial"]))
	v["spell.merge_ms"] = median(durations(byName["spell.merge"]))
	v["golem.partial_ms"] = median(durations(byName["golem.partial"]))
	v["golem.merge_ms"] = median(durations(byName["golem.merge"]))

	// Fleet ops: fold each op's replay spans into per-request figures.
	type fleetOp struct {
		scatter, slowest, merge, enc, dec float64
		bytes, groups                     int
	}
	fleet := map[int64]*fleetOp{}
	at := func(op int64) *fleetOp {
		if fleet[op] == nil {
			fleet[op] = &fleetOp{}
		}
		return fleet[op]
	}
	for _, s := range rec.spans {
		switch {
		case strings.HasPrefix(s.Name, "shard.scatter."):
			at(s.Op).scatter = s.ms()
		case s.Name == "spell.partial" || s.Name == "golem.partial":
			f := at(s.Op)
			f.slowest = math.Max(f.slowest, s.ms())
			f.groups++
		case s.Name == "spell.merge" || s.Name == "golem.merge":
			at(s.Op).merge = s.ms()
		case strings.HasPrefix(s.Name, "shard.gob_encode."):
			f := at(s.Op)
			f.enc += s.ms()
			f.bytes += s.Bytes
		case strings.HasPrefix(s.Name, "shard.gob_decode."):
			at(s.Op).dec += s.ms()
		}
	}
	var scatter, rtt, enc, dec, wire, groups []float64
	for _, f := range fleet {
		if f.scatter == 0 {
			continue
		}
		scatter = append(scatter, f.scatter)
		rtt = append(rtt, f.scatter-f.slowest-f.merge)
		enc, dec = append(enc, f.enc), append(dec, f.dec)
		wire, groups = append(wire, float64(f.bytes)), append(groups, float64(f.groups))
	}
	v["shard.scatters"] = float64(len(scatter))
	v["shard.scatter_ms"] = median(scatter)
	v["shard.rtt_overhead_ms"] = median(rtt)
	v["shard.gob_encode_ms"] = median(enc)
	v["shard.gob_decode_ms"] = median(dec)
	v["shard.wire_bytes"] = mean(wire)
	v["shard.groups_per_request"] = mean(groups)

	for _, m := range perLayer {
		x, ok := v[m.name]
		if !ok {
			return fmt.Errorf("per-layer metric %s was not computed", m.name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // the workload does not exercise this layer
		}
		rep.Metrics[m.name] = metric{x, m.unit}
	}
	return nil
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func spansByName(spans []*span) map[string][]*span {
	out := map[string][]*span{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

func durations(spans []*span) []float64 { return field(spans, (*span).ms) }

func field(spans []*span, f func(*span) float64) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = f(s)
	}
	return out
}
