package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"forestview/internal/spell"
	"forestview/internal/workload"
)

func TestPlanIsPureFunctionOfSeed(t *testing.T) {
	for _, name := range []string{"explore", "cold", "fleet"} {
		in, err := makeInputs(name)
		if err != nil {
			t.Fatal(err)
		}
		draw := func(seed int64) [][]workload.Op {
			src := newOpSource(in, seed)
			var phases [][]workload.Op
			for _, d := range []time.Duration{2 * time.Second, time.Second} {
				ops, err := src.next(40, d)
				if err != nil {
					t.Fatal(err)
				}
				phases = append(phases, ops)
			}
			return phases
		}
		a, b, c := draw(7), draw(7), draw(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two sources with seed 7 drew different ops", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew identical ops", name)
		}
		if name == "explore" {
			continue
		}
		seen := map[string]bool{}
		for _, phase := range a {
			for _, op := range phase {
				if seen[op.Path] {
					t.Errorf("%s: op %s repeats", name, op.Path)
				}
				seen[op.Path] = true
			}
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range endToEndMetrics {
		e2e = append(e2e, m.name+" "+m.unit)
	}
	for _, m := range perLayer {
		layer = append(layer, m.name+" "+m.unit)
	}
	var fileE2E, fileLayer []string
	for _, m := range bf.EndToEnd {
		fileE2E = append(fileE2E, m.Name+" "+m.Unit)
	}
	for _, m := range bf.PerLayer {
		fileLayer = append(fileLayer, m.Name+" "+m.Unit)
	}
	for _, l := range [][]string{e2e, layer, fileE2E, fileLayer} {
		sort.Strings(l)
	}
	if !reflect.DeepEqual(e2e, fileE2E) {
		t.Errorf("end-to-end metrics: program %v, BENCHMARK.json %v", e2e, fileE2E)
	}
	if !reflect.DeepEqual(layer, fileLayer) {
		t.Errorf("per-layer metrics: program %v, BENCHMARK.json %v", layer, fileLayer)
	}
	for _, l := range [][]string{e2e, layer} {
		for _, nu := range l {
			if name := strings.Fields(nu)[0]; !valid.MatchString(name) {
				t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", name)
			}
		}
	}
	for _, w := range bf.Workloads {
		if _, ok := shapes[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no shape", w.Name)
		}
	}
}

// TestFailuresRaiseErrorRate serves each kind of failure from a fake
// daemon and checks that every one is counted.
func TestFailuresRaiseErrorRate(t *testing.T) {
	in, err := makeInputs("explore")
	if err != nil {
		t.Fatal(err)
	}
	engine, err := spell.NewEngine(in.compendia)
	if err != nil {
		t.Fatal(err)
	}
	q := in.genes[:3]
	good, err := engine.Search(q, spell.Options{MaxGenes: searchTop, IncludeQuery: true})
	if err != nil {
		t.Fatal(err)
	}
	goodBody, _ := json.Marshal(good)
	good.Genes[0].Score += 1e-9
	wrongBody, _ := json.Marshal(good)

	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Query().Get("case") {
		case "ok":
			_, _ = w.Write(goodBody)
		case "5xx":
			w.WriteHeader(http.StatusInternalServerError)
		case "shed":
			w.WriteHeader(http.StatusServiceUnavailable)
		case "degraded":
			w.Header().Set("X-Forestview-Degraded", "true")
			_, _ = w.Write(goodBody)
		case "wrong":
			_, _ = w.Write(wrongBody)
		}
	}))
	defer fake.Close()

	path := "/api/search?q=" + strings.Join(q, ",") + "&top=20&case="
	sys := &system{engine: engine}
	cases := []struct {
		name          string
		failed, wrong int
	}{{"ok", 0, 0}, {"5xx", 1, 0}, {"shed", 1, 0}, {"degraded", 1, 0}, {"wrong", 1, 1}}
	for _, c := range cases {
		ops := []workload.Op{{Endpoint: "search", Path: path + c.name}}
		res := runPhase(context.Background(), newClient(2), fake.URL, ops, func(int) bool { return true }, nil)
		failed, wrong := tally(sys, res, io.Discard)
		if failed != c.failed || wrong != c.wrong {
			t.Errorf("%s: failed %d wrong %d, want %d and %d", c.name, failed, wrong, c.failed, c.wrong)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// op 0:  [0, 100]  op span
	//   http [10, 90]
	//     child a [20, 40], child b [30, 50] (overlapping: 30 ms covered)
	//     child c [80, 120] (clipped to 10 ms inside http)
	//   replayed layer spans: 25 ms (layer) + 5 ms (not the layer)
	spans := []*span{
		{ID: 1, Op: 0, Name: "op.search", Start: at(0), End: at(100)},
		{ID: 10, Parent: 1, Op: 0, Name: "http.search", Start: at(10), End: at(90)},
		{ID: 11, Parent: 10, Op: 0, Name: "a", Start: at(20), End: at(40)},
		{ID: 12, Parent: 10, Op: 0, Name: "b", Start: at(30), End: at(50)},
		{ID: 13, Parent: 10, Op: 0, Name: "c", Start: at(80), End: at(120)},
		{ID: 14, Parent: 1, Op: 0, Name: "spell.search", Start: at(200), End: at(225), Layer: true},
		{ID: 15, Parent: 1, Op: 0, Name: "render.png", Start: at(230), End: at(235)},
	}
	selfTimes(spans)
	want := map[int64]float64{1: 20, 10: 40, 11: 20, 12: 20, 13: 40, 14: 25, 15: 5}
	for _, s := range spans {
		if d := s.SelfMS - want[s.ID]; d > 1e-9 || d < -1e-9 {
			t.Errorf("span %d (%s): self %.3f ms, want %.3f", s.ID, s.Name, s.SelfMS, want[s.ID])
		}
	}
	if got := serverSelfMS(spans)[0]; got != 80-25 {
		t.Errorf("server self time %.3f ms, want 55", got)
	}
}

func TestSmokeRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs start full deployments")
	}
	for _, name := range []string{"explore", "cold", "fleet"} {
		for _, traced := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 3, measure: time.Second, trace: traced,
				warmup: 300 * time.Millisecond, setups: 1,
				ladder:   ladder{minStep: 300 * time.Millisecond, minOps: 10},
				spansDir: t.TempDir(), log: io.Discard,
			}
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", name, traced, rep.Correct, rep.Failed, rep.Attempted)
			}
			want := endToEndMetrics
			if traced {
				want = perLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if _, ok := rep.Metrics[m.name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", name, traced, m.name)
				}
			}
		}
	}
}
