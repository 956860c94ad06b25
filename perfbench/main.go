// Command perfbench is forestview's benchmark. It builds forestviewd in
// process from its public constructors (server.New, shard.NewCoordinator)
// behind loopback listeners, drives one workload open-loop at a fixed
// Poisson rate, checks sampled responses against the layer kernels, and
// prints every metric by name and unit. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload explore --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
// a traced phase, replays a sample of the traced ops through the layers,
// writes the spans under .bench_build/perfbench/ and reports the per-layer
// metrics. See README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"forestview/internal/workload"
)

type config struct {
	workload string
	seed     int64
	measure  time.Duration // the timed phase
	trace    bool

	warmup   time.Duration
	setups   int // set-ups per run; setup_s is their median
	ladder   ladder
	spansDir string
	log      io.Writer
}

func main() {
	var (
		cfg     config
		seconds int
		trace   int
	)
	flag.StringVar(&cfg.workload, "workload", "", "explore, cold or fleet")
	flag.Int64Var(&cfg.seed, "seed", 1, "op-stream seed")
	flag.IntVar(&seconds, "seconds", 20, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1: traced per-layer run instead of the end-to-end run")
	flag.Parse()
	if seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg.measure = time.Duration(seconds) * time.Second
	cfg.trace = trace == 1
	cfg.warmup = 2 * time.Second
	cfg.setups = 3
	cfg.spansDir = filepath.Join(".bench_build", "perfbench")
	cfg.ladder = ladder{minStep: 1500 * time.Millisecond, minOps: 200}
	cfg.log = os.Stdout

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndMetrics are the bounded metrics of a --trace 0 run, every one of
// them measured on every workload. The other end-to-end figures (search and
// heatmap p50, every p95, capacity_rps) are printed above the result line
// but left out of it: in two ten-seed proofs on a shared 2-core VM each of
// them spread (interquartile range over median) wider than 0.25, with the
// neighbours' load (search p50 followed setup_s to 0.29) or with the seed's
// tile walk (explore's heatmap p50, 0.57). error_rate is printed too and
// carried by the result's failed and attempted counts; a healthy run
// reads 0.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"enrich_p50_ms", "ms"},
	{"heap_mb", "MiB"},
}

func run(ctx context.Context, cfg config) (*report, error) {
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	maxConns := runtime.GOMAXPROCS(0)
	in, err := makeInputs(cfg.workload)
	if err != nil {
		return nil, err
	}
	var setups []float64
	var sys *system
	for i := 0; i < cfg.setups; i++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC()
		t := time.Now()
		if sys, err = startSystem(in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	defer sys.close()
	client := newClient(maxConns)
	defer client.CloseIdleConnections()
	fmt.Fprintf(cfg.log, "workload %s seed %d: %d datasets x %d genes, %d panes %v, rate %.0f/s, GOMAXPROCS %d, %d conns\n",
		cfg.workload, cfg.seed, len(in.compendia), len(in.genes), len(in.paneRows), in.paneRows, in.rate, runtime.GOMAXPROCS(0), maxConns)

	// A traced run splits the measured time into an untraced and a traced
	// half, so it costs no more time than an end-to-end run.
	src := newOpSource(in, cfg.seed)
	phase := cfg.measure
	if cfg.trace {
		phase /= 2
	}
	ops, err := src.next(in.rate, cfg.warmup+cfg.measure)
	if err != nil {
		return nil, err
	}
	warm, rest := splitAt(ops, cfg.warmup)
	runPhase(ctx, client, sys.url, warm, nil, nil)
	timedOps, tracedOps := splitAt(rest, phase)
	res := runPhase(ctx, client, sys.url, timedOps, sampleEvery(len(timedOps)), nil)
	lagP95, stalls := generatorHealth(res)
	fmt.Fprintf(cfg.log, "generator: issue lag p95 %.3f ms, %d stalls > %.0f ms over %d ops\n", lagP95, stalls, stallMS, len(res))
	if lagP95 > maxIssueLagP95MS {
		// The latencies would measure the generator, not the daemon.
		return nil, fmt.Errorf("invalid run: generator issue lag p95 %.1f ms exceeds %.0f ms", lagP95, maxIssueLagP95MS)
	}

	// Live heap of the deployment after the timed phase, before the
	// benchmark builds its own reference kernels for the checks.
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMiB := float64(mem.HeapAlloc) / (1 << 20)
	if err := attachReferences(sys, in); err != nil {
		return nil, err
	}

	rep := &report{Attempted: len(res), Metrics: map[string]metric{}}
	var wrong int
	rep.Failed, wrong = tally(sys, res, cfg.log)
	rep.Correct = wrong == 0
	fmt.Fprintf(cfg.log, "error_rate %.6f fraction (%d failed of %d attempted, %d wrong answers)\n",
		float64(rep.Failed)/float64(rep.Attempted), rep.Failed, rep.Attempted, wrong)

	if cfg.trace {
		err = tracedRun(ctx, cfg, sys, client, res, tracedOps, rep)
	} else {
		err = endToEnd(ctx, cfg, in, sys, client, src, res, setups, heapMiB, rep)
	}
	if err != nil {
		return nil, err
	}
	want := endToEndMetrics
	if cfg.trace {
		want = perLayer
		printMetrics(cfg.log, rep.Metrics)
	}
	for _, m := range want {
		if got, ok := rep.Metrics[m.name]; !ok || got.Unit != m.unit {
			return nil, fmt.Errorf("metric %s (%s) was not measured", m.name, m.unit)
		}
	}
	return rep, nil
}

// printMetrics prints one line per metric, sorted by name.
func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %-34s %14.6f %s\n", name, ms[name].Value, ms[name].Unit)
	}
}

// tally counts a phase's failed ops and checks its sampled bodies against
// the reference kernels. failed includes the wrong answers.
func tally(sys *system, res []outcome, log io.Writer) (failed, wrong int) {
	for i := range res {
		if res[i].failed() {
			failed++
			continue
		}
		if res[i].body == nil {
			continue
		}
		if msg := checkOutcome(sys, &res[i]); msg != "" {
			wrong++
			if wrong <= 5 {
				fmt.Fprintln(log, "CHECK FAILED:", msg)
			}
		}
	}
	return failed + wrong, wrong
}

// splitAt splits an open-loop schedule at offset d and rebases the second
// part to start at zero.
func splitAt(ops []workload.Op, d time.Duration) (before, after []workload.Op) {
	i := sort.Search(len(ops), func(i int) bool { return ops[i].At >= d })
	after = make([]workload.Op, len(ops)-i)
	for k, op := range ops[i:] {
		op.At -= d
		after[k] = op
	}
	return ops[:i], after
}

// endToEnd measures every end-to-end figure of a --trace 0 run, prints
// each by name and unit (percentiles with their sample counts), and puts
// the bounded ones in the result.
func endToEnd(ctx context.Context, cfg config, in *inputs, sys *system, client *http.Client, src opSource,
	res []outcome, setups []float64, heapMiB float64, rep *report) error {
	figures := map[string]metric{
		"setup_s": {median(setups), "s"},
		"heap_mb": {heapMiB, "MiB"},
	}
	fmt.Fprintf(cfg.log, "setup_s samples %v\n", setups)
	for _, ep := range []string{"search", "enrich", "heatmap"} {
		xs := okLatencies(res, ep)
		if len(xs) == 0 {
			return fmt.Errorf("no successful %s ops in the timed phase", ep)
		}
		figures[ep+"_p50_ms"] = metric{quantile(xs, 0.5), "ms"}
		figures[ep+"_p95_ms"] = metric{quantile(xs, 0.95), "ms"}
		fmt.Fprintf(cfg.log, "%s: n=%d\n", ep, len(xs))
	}
	capRPS, steps, err := capacity(ctx, client, sys.url, src, in.capacityGuess, cfg.ladder, cfg.log)
	if err != nil {
		return err
	}
	figures["capacity_rps"] = metric{capRPS, "req/s"}
	fmt.Fprintf(cfg.log, "capacity ladder: %d steps\n", steps)
	printMetrics(cfg.log, figures)
	for _, m := range endToEndMetrics {
		rep.Metrics[m.name] = figures[m.name]
	}
	return nil
}

// okLatencies are the latencies of endpoint's successful ops; failures are
// reported through error_rate.
func okLatencies(res []outcome, endpoint string) []float64 {
	var xs []float64
	for _, x := range latencies(res, endpoint) {
		if !math.IsInf(x, 1) {
			xs = append(xs, x)
		}
	}
	return xs
}
