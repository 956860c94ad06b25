package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"forestview/internal/workload"
)

// Generator honesty. An op issued more than stallMS after its scheduled
// arrival is a stall; a run whose issue-lag p95 exceeds maxIssueLagP95MS
// measured the generator, not the daemon, and is refused.
const (
	stallMS          = 10.0
	maxIssueLagP95MS = 20.0
)

// outcome is one op's measurement.
type outcome struct {
	seq        int
	op         workload.Op
	lagMS      float64 // issue time minus scheduled arrival
	latMS      float64 // completion minus scheduled arrival
	sched      time.Time
	sent, done time.Time
	status     int
	cache      string // X-Forestview-Cache
	level      string // X-Forestview-Level
	degraded   bool
	body       []byte // kept only for the sampled ops
	err        string
}

// failed reports whether the op counts against error_rate: a transport
// error, any non-200 status (5xx, shed 503) or a degraded merge. Wrong
// answers are added by the output checks.
func (o *outcome) failed() bool { return o.err != "" || o.status != http.StatusOK || o.degraded }

// newClient is the load's only HTTP client: at most maxConns connections to
// any one target, so the generator cannot open more parallelism than the
// box has cores.
func newClient(maxConns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     maxConns,
			MaxIdleConnsPerHost: maxConns,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}

// runPhase replays ops open-loop against base: each op is issued at its
// scheduled offset, on its own goroutine, whatever earlier ops are doing,
// and its latency runs from the scheduled arrival. keep selects the ops
// whose bodies are retained for the output checks; rec, when non-nil,
// records an op span and an HTTP span per op.
func runPhase(ctx context.Context, client *http.Client, base string, ops []workload.Op, keep func(int) bool, rec *recorder) []outcome {
	out := make([]outcome, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for seq := range ops {
		sched := start.Add(ops[seq].At)
		if wait := time.Until(sched); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				out = out[:seq]
				wg.Wait()
				return out
			}
		}
		o := &out[seq]
		o.seq, o.op, o.sched = seq, ops[seq], sched
		o.lagMS = msBetween(sched, time.Now())
		wg.Add(1)
		go func(o *outcome, keepBody bool) {
			defer wg.Done()
			issue(ctx, client, base, o, keepBody)
			if rec != nil {
				opSpan := rec.add(0, int64(o.seq), "op."+o.op.Endpoint, o.sched, o.done)
				rec.add(opSpan, int64(o.seq), "http."+o.op.Endpoint, o.sent, o.done)
			}
		}(o, keep != nil && keep(seq))
	}
	wg.Wait()
	return out
}

func issue(ctx context.Context, client *http.Client, base string, o *outcome, keepBody bool) {
	o.sent = time.Now()
	defer func() {
		o.done = time.Now()
		o.latMS = msBetween(o.sched, o.done)
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+o.op.Path, nil)
	if err != nil {
		o.err = err.Error()
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		o.err = err.Error()
		return
	}
	defer resp.Body.Close()
	if keepBody {
		o.body, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	if err != nil {
		o.err = err.Error()
	}
	o.status = resp.StatusCode
	o.cache = resp.Header.Get("X-Forestview-Cache")
	o.level = resp.Header.Get("X-Forestview-Level")
	o.degraded = resp.Header.Get("X-Forestview-Degraded") == "true"
}

func msBetween(a, b time.Time) float64 { return float64(b.Sub(a)) / float64(time.Millisecond) }

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies returns the latencies of endpoint's ops ("" for all). Failed
// ops count as +Inf: a refused request misses every latency limit.
func latencies(res []outcome, endpoint string) []float64 {
	var xs []float64
	for i := range res {
		if endpoint != "" && res[i].op.Endpoint != endpoint {
			continue
		}
		if res[i].failed() {
			xs = append(xs, math.Inf(1))
		} else {
			xs = append(xs, res[i].latMS)
		}
	}
	return xs
}

// generatorHealth folds the issue lags of a phase.
func generatorHealth(res []outcome) (lagP95 float64, stalls int) {
	lags := make([]float64, len(res))
	for i := range res {
		lags[i] = res[i].lagMS
		if res[i].lagMS > stallMS {
			stalls++
		}
	}
	return quantile(lags, 0.95), stalls
}

// Capacity ladder. A step passes when its overall p95 is at most
// capacityP95MS, at least 95% of offered ops succeed, the backlog does not
// grow (the mean number of unfinished ops over the step's second half is
// at most 1.5 times, plus 2, that over its first half), and the generator
// kept its schedule (a rate it cannot offer is not a rate the daemon
// sustained).
const (
	capacityP95MS = 100.0
	ladderFactor  = 1.25
	ladderBisect  = 2
	ladderSteps   = 12 // steps, the first included, to find a pass and a fail
)

type stepResult struct {
	offered float64 // nominal Poisson rate, ops per second
	p95     float64
	pass    bool
}

// ladder sizes the steps: each lasts at least minStep and long enough to
// offer minOps ops, so a slow workload's p95 still rests on a few samples
// beyond it.
type ladder struct {
	minStep time.Duration
	minOps  int
}

func (l ladder) step(rate float64) time.Duration {
	return max(l.minStep, time.Duration(float64(l.minOps)/rate*float64(time.Second)))
}

// runStep offers one ladder step of length dur at rate and judges it.
func runStep(ctx context.Context, client *http.Client, base string, src opSource, rate float64, dur time.Duration) (stepResult, error) {
	ops, err := src.next(rate, dur)
	if err != nil {
		return stepResult{}, err
	}
	res := runPhase(ctx, client, base, ops, nil, nil)
	st := stepResult{offered: rate}
	if len(res) == 0 {
		return st, nil
	}
	start := res[0].sched.Add(-res[0].op.At)
	backlog := func(from, to time.Duration) float64 {
		const samples = 20
		n := 0
		for k := 0; k < samples; k++ {
			at := start.Add(from + (to-from)*time.Duration(k)/samples)
			for i := range res {
				if !res[i].sched.After(at) && res[i].done.After(at) {
					n++
				}
			}
		}
		return float64(n) / samples
	}
	ok := 0
	for i := range res {
		if !res[i].failed() {
			ok++
		}
	}
	st.p95 = quantile(latencies(res, ""), 0.95)
	lagP95, _ := generatorHealth(res)
	st.pass = st.p95 <= capacityP95MS && lagP95 <= maxIssueLagP95MS &&
		float64(ok) >= 0.95*float64(len(res)) &&
		backlog(dur/2, dur) <= 1.5*backlog(0, dur/2)+2
	return st, nil
}

// capacity starts the ladder at guess (the workload's recorded capacity)
// and climbs by ladderFactor until a step fails (or descends until one
// passes), then bisects between the
// highest passing and lowest failing rates. Offered rates are the nominal
// Poisson rates. The result is the rate, between the highest passing and
// the lowest failing step, at which the p95 interpolated linearly in log
// rate reaches capacityP95MS; the highest passing rate itself when the
// failing step failed on throughput or backlog instead. It also returns the
// number of steps run.
func capacity(ctx context.Context, client *http.Client, base string, src opSource, guess float64, l ladder, log io.Writer) (float64, int, error) {
	var lo, hi stepResult
	steps := 0
	try := func(rate float64) (bool, error) {
		st, err := runStep(ctx, client, base, src, rate, l.step(rate))
		steps++
		if err != nil {
			return false, err
		}
		fmt.Fprintf(log, "ladder step %d: offered %.2f/s, p95 %.2f ms, pass %v\n", steps, rate, st.p95, st.pass)
		if st.pass {
			lo = st
		} else {
			hi = st
		}
		return st.pass, nil
	}
	pass, err := try(guess)
	for rate := guess; err == nil && steps < ladderSteps; {
		if pass {
			rate *= ladderFactor
		} else {
			rate /= ladderFactor
		}
		var again bool
		if again, err = try(rate); again != pass {
			break
		}
	}
	for i := 0; err == nil && lo.pass && hi.offered > 0 && i < ladderBisect; i++ {
		_, err = try(math.Sqrt(lo.offered * hi.offered))
	}
	if err == nil && (!lo.pass || hi.offered == 0) {
		err = fmt.Errorf("capacity ladder found no pass and fail within %d steps from %.1f/s", steps, guess)
	}
	if err != nil || hi.p95 <= capacityP95MS || math.IsInf(hi.p95, 1) {
		return lo.offered, steps, err
	}
	f := (capacityP95MS - lo.p95) / (hi.p95 - lo.p95)
	return lo.offered * math.Pow(hi.offered/lo.offered, f), steps, nil
}
