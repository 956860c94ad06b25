package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"forestview/internal/workload"
)

// searchTop is the ranking length every search op asks for.
const searchTop = 20

// opSource hands out the op stream of one run, phase by phase. Every phase
// is a pure function of the seed and the phases drawn before it.
type opSource interface {
	// next returns an open-loop Poisson schedule at rate over dur, with
	// offsets relative to the phase start.
	next(rate float64, dur time.Duration) ([]workload.Op, error)
}

// newOpSource builds the op stream for a workload: explore replays the
// workload package's interactive session plans; cold and fleet draw ops
// that never repeat.
func newOpSource(in *inputs, seed int64) opSource {
	if in.workload == "explore" {
		return &sessionSource{in: in, seed: seed}
	}
	return newDistinctSource(in, seed)
}

// sessionSource draws workload.NewPlan schedules. Every phase reuses the
// seed, so all phases share one Zipf query pool and start the same tile
// walks: the caches the warm-up fills are the ones later phases hit.
type sessionSource struct {
	in   *inputs
	seed int64
}

func (s *sessionSource) next(rate float64, dur time.Duration) ([]workload.Op, error) {
	plan, err := workload.NewPlan(workload.Spec{
		Rate: rate, Duration: dur, Seed: s.seed, Mix: s.in.mix,
		Genes: s.in.genes, PaneRows: s.in.paneRows,
		TileRows: s.in.tileRows, TileSize: s.in.tileSize,
	})
	if err != nil {
		return nil, err
	}
	return plan.Ops, nil
}

// distinctSource draws ops whose inputs never repeat within a run: every
// query gene set, every enrichment selection and every tile window is new,
// so the caches only take insertions and evictions. workload.NewPlan draws
// from a repeating Zipf pool, so this generator is the benchmark's own.
type distinctSource struct {
	in   *inputs
	rng  *rand.Rand
	seen map[string]bool
}

func newDistinctSource(in *inputs, seed int64) *distinctSource {
	return &distinctSource{in: in, rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

func (s *distinctSource) next(rate float64, dur time.Duration) ([]workload.Op, error) {
	m := s.in.mix
	total := m.Search + m.Enrich + m.Heatmap
	if rate <= 0 || dur <= 0 || total <= 0 {
		return nil, fmt.Errorf("bad phase: rate %g, duration %v, mix %+v", rate, dur, m)
	}
	var ops []workload.Op
	for t := s.gap(rate); t < dur; t += s.gap(rate) {
		var op workload.Op
		switch r := s.rng.Intn(total); {
		case r < m.Search:
			op = workload.Op{Endpoint: "search",
				Path: "/api/search?q=" + url.QueryEscape(strings.Join(s.genes(3), ",")) + fmt.Sprintf("&top=%d", searchTop)}
		case r < m.Search+m.Enrich:
			op = workload.Op{Endpoint: "enrich",
				Path: "/api/enrich?genes=" + url.QueryEscape(strings.Join(s.genes(20), ","))}
		default:
			op = workload.Op{Endpoint: "heatmap", Path: s.tile()}
		}
		op.At = t
		ops = append(ops, op)
	}
	return ops, nil
}

func (s *distinctSource) gap(rate float64) time.Duration {
	return time.Duration(float64(time.Second) * s.rng.ExpFloat64() / rate)
}

// genes draws n distinct genes whose sorted set was never drawn before.
func (s *distinctSource) genes(n int) []string {
	for {
		ids := make([]string, n)
		for i, p := range s.rng.Perm(len(s.in.genes))[:n] {
			ids[i] = s.in.genes[p]
		}
		key := append([]string(nil), ids...)
		sort.Strings(key)
		if k := strings.Join(key, ","); !s.seen[k] {
			s.seen[k] = true
			return ids
		}
	}
}

// tile draws a never-requested window: a random pane, a power-of-two span
// from 32 rows up to the whole pane, and a random offset.
func (s *distinctSource) tile() string {
	for {
		pane := s.rng.Intn(len(s.in.paneRows))
		rows := s.in.paneRows[pane]
		span := 32 << s.rng.Intn(8)
		if span > rows {
			span = rows
		}
		from := s.rng.Intn(rows - span + 1)
		p := fmt.Sprintf("/api/heatmap?dataset=%d&rows=%d:%d&w=%d&h=%d",
			pane, from, from+span, s.in.tileSize, s.in.tileSize)
		if !s.seen[p] {
			s.seen[p] = true
			return p
		}
	}
}
