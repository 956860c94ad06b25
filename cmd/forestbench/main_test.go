package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"forestview/internal/workload"
)

// TestSmokeProfileShard2Fleet is the fleet E2E: the real CLI smoke profile
// pushed through a coordinator + 2 shard-server topology. Zero 5xx, and
// every envelope carries the exact shard tally its endpoint promises.
func TestSmokeProfileShard2Fleet(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "sm")
	var stdout, stderr bytes.Buffer
	code := runMain([]string{
		"-profile=smoke", "-topology=shard2",
		"-rate", "30", "-step-duration", "800ms", "-out", prefix,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	f, err := os.Open(prefix + "-shard2.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	envs, err := workload.ReadEnvelopes(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(envs) == 0 {
		t.Fatal("smoke produced no envelopes")
	}
	searches, enriches := 0, 0
	for _, e := range envs {
		if e.Status >= 500 || e.Status == 0 {
			t.Fatalf("envelope failed: %+v", e)
		}
		switch e.Endpoint {
		case "search":
			searches++
			if e.ShardsOK != 2 || e.ShardsTotal != 2 || e.Degraded {
				t.Fatalf("search envelope shard tally %d/%d degraded=%t, want 2/2 false: %+v",
					e.ShardsOK, e.ShardsTotal, e.Degraded, e)
			}
			if e.Cache == "" {
				t.Fatalf("search envelope without cache disposition: %+v", e)
			}
		case "enrich":
			// One shard serves the whole background in one request, so
			// exactly one shard contributes tallies.
			enriches++
			if e.ShardsOK != 1 || e.ShardsTotal != 2 || e.Degraded {
				t.Fatalf("enrich envelope shard tally %d/%d degraded=%t, want 1/2 false: %+v",
					e.ShardsOK, e.ShardsTotal, e.Degraded, e)
			}
			if e.Cache == "" {
				t.Fatalf("enrich envelope without cache disposition: %+v", e)
			}
		case "stats":
			if e.ShardsOK != 0 || e.ShardsTotal != 0 {
				t.Fatalf("stats envelope has shard headers: %+v", e)
			}
		default:
			t.Fatalf("unexpected endpoint %q in shard2 smoke", e.Endpoint)
		}
	}
	if searches == 0 || enriches == 0 {
		t.Fatalf("endpoint coverage: %d searches, %d enriches", searches, enriches)
	}
	// The analyze report made it to stdout and to the artifact file.
	if !strings.Contains(stdout.String(), "max sustainable rate") {
		t.Fatalf("no capacity estimate in output:\n%s", stdout.String())
	}
	rep, err := os.ReadFile(prefix + "-shard2-report.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"p50", "search", "requests:"} {
		if !strings.Contains(string(rep), want) {
			t.Fatalf("report artifact missing %q:\n%s", want, rep)
		}
	}
	csv, err := os.ReadFile(prefix + "-shard2-sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if !strings.HasPrefix(lines[0], "step,offered_qps,achieved_qps,") {
		t.Fatalf("sweep CSV header: %q", lines[0])
	}
	if len(lines) != 3 { // header + the two sweep steps
		t.Fatalf("sweep CSV has %d lines, want 3:\n%s", len(lines), csv)
	}
}

// TestSmokeProfileSingle: the single-daemon smoke exercises all four
// endpoints and passes its own gate.
func TestSmokeProfileSingle(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "sm")
	var stdout, stderr bytes.Buffer
	code := runMain([]string{
		"-profile=smoke", "-topology=single",
		"-rate", "30", "-step-duration", "800ms", "-out", prefix,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("smoke exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	f, err := os.Open(prefix + "-single.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	envs, err := workload.ReadEnvelopes(f)
	if err != nil {
		t.Fatal(err)
	}
	byEndpoint := map[string]int{}
	for _, e := range envs {
		if e.Status >= 500 || e.Status == 0 {
			t.Fatalf("envelope failed: %+v", e)
		}
		byEndpoint[e.Endpoint]++
	}
	for _, ep := range []string{"search", "heatmap", "enrich", "stats"} {
		if byEndpoint[ep] == 0 {
			t.Fatalf("no %s envelopes in %v", ep, byEndpoint)
		}
	}
}

// TestShardKillMidRun: kill one of two shard servers mid-run. The
// coordinator must degrade — every response after the kill is a 200 with
// Degraded=true over the 1 surviving shard — and never error. The
// coordinator cache is tiny so post-kill searches genuinely re-scatter
// instead of replaying cached full merges.
func TestShardKillMidRun(t *testing.T) {
	tp, err := newShard2Topology(16)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()

	const (
		killAt   = 1500 * time.Millisecond
		marginMS = 500
	)
	plan, err := workload.NewPlan(workload.Spec{
		Rate:     50,
		Duration: 3 * time.Second,
		Seed:     5,
		Mix:      workload.Mix{Search: 1},
		Genes:    tp.genes,
	})
	if err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(killAt, tp.shardServers[1].Close)
	defer timer.Stop()
	var buf bytes.Buffer
	n, err := workload.Run(context.Background(), plan, workload.RunOptions{BaseURL: tp.url, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(plan.Ops) {
		t.Fatalf("wrote %d envelopes for %d ops", n, len(plan.Ops))
	}
	envs, err := workload.ReadEnvelopes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	killMS := float64(killAt / time.Millisecond)
	var healthy, degraded int
	for _, e := range envs {
		// The invariant under fire: never an error, only flagged degradation.
		if e.Status != 200 {
			t.Fatalf("non-200 under shard kill: %+v", e)
		}
		if e.ShardsTotal != 2 {
			t.Fatalf("shard tally total %d, want 2: %+v", e.ShardsTotal, e)
		}
		switch {
		case e.SchedMS+e.LatencyMS < killMS:
			// Completed before the kill: a full merge.
			healthy++
			if e.Degraded || e.ShardsOK != 2 {
				t.Fatalf("pre-kill envelope degraded: %+v", e)
			}
		case e.SchedMS > killMS+marginMS:
			// Scheduled well after the kill: must be a flagged survivor merge.
			degraded++
			if !e.Degraded || e.ShardsOK != 1 {
				t.Fatalf("post-kill envelope not degraded: %+v", e)
			}
		}
	}
	if healthy == 0 || degraded == 0 {
		t.Fatalf("kill not straddled: %d healthy, %d degraded of %d", healthy, degraded, len(envs))
	}
}

// TestReplicatedFleetKillMidRun is the replication acceptance proof: a
// 3-shard fleet at replication 2 loses one shard mid-run, and because
// every dataset still has a live owner, the coordinator keeps answering
// full merges — zero 5xx, zero transport errors, zero degraded envelopes,
// before and after the kill, for searches and enrichments alike. The tiny
// coordinator cache forces every post-kill request to genuinely
// re-scatter through replica failover.
func TestReplicatedFleetKillMidRun(t *testing.T) {
	tp, err := newFleetTopology("fleet3r2", 3, 2, 6, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()

	const killAt = 1200 * time.Millisecond
	plan, err := workload.NewPlan(workload.Spec{
		Rate:     50,
		Duration: 3 * time.Second,
		Seed:     9,
		Mix:      workload.Mix{Search: 1, Enrich: 1},
		Genes:    tp.genes,
	})
	if err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(killAt, tp.shardServers[1].Close)
	defer timer.Stop()
	var buf bytes.Buffer
	n, err := workload.Run(context.Background(), plan, workload.RunOptions{BaseURL: tp.url, Out: &buf})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(plan.Ops) {
		t.Fatalf("wrote %d envelopes for %d ops", n, len(plan.Ops))
	}
	envs, err := workload.ReadEnvelopes(&buf)
	if err != nil {
		t.Fatal(err)
	}
	killMS := float64(killAt / time.Millisecond)
	postKill := map[string]int{}
	for _, e := range envs {
		if e.Status != 200 {
			t.Fatalf("non-200 under replicated shard kill: %+v", e)
		}
		if e.Degraded {
			t.Fatalf("degraded merge despite replication: %+v", e)
		}
		if e.ShardsTotal != 3 {
			t.Fatalf("shard tally total %d, want 3: %+v", e.ShardsTotal, e)
		}
		if e.SchedMS > killMS {
			postKill[e.Endpoint]++
		}
	}
	// Both scattered endpoints must straddle the kill, or the zero-degraded
	// claim proved nothing about failover.
	if postKill["search"] == 0 || postKill["enrich"] == 0 {
		t.Fatalf("kill not straddled per endpoint: %v of %d envelopes", postKill, len(envs))
	}
}

// TestRunAndAnalyzeSubcommands: the two CLI subcommands against a live
// topology — run writes JSONL, analyze folds and gates it.
func TestRunAndAnalyzeSubcommands(t *testing.T) {
	tp, err := newSingleTopology(0)
	if err != nil {
		t.Fatal(err)
	}
	defer tp.close()

	out := filepath.Join(t.TempDir(), "run.jsonl")
	var stdout, stderr bytes.Buffer
	code := runMain([]string{"run",
		"-target", tp.url,
		"-rate", "40", "-duration", "700ms",
		"-mix", "search=3,stats=1",
		"-gene-ids", strings.Join(tp.genes[:30], ","),
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("run exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "wrote ") {
		t.Fatalf("run progress missing: %s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	code = runMain([]string{"analyze", "-in", out, "-fail-on-5xx", "-max-p99", "5000"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("analyze exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, want := range []string{"requests:", "search", "stats"} {
		if !strings.Contains(stdout.String(), want) {
			t.Fatalf("analyze output missing %q:\n%s", want, stdout.String())
		}
	}

	// The JSON form round-trips through the report schema.
	stdout.Reset()
	if code := runMain([]string{"analyze", "-in", out, "-json"}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze -json exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), `"capacity_qps"`) {
		t.Fatalf("JSON report missing capacity_qps:\n%s", stdout.String())
	}

	// -csv writes the per-step latency-vs-rate curve.
	csvPath := filepath.Join(t.TempDir(), "sweep.csv")
	stdout.Reset()
	if code := runMain([]string{"analyze", "-in", out, "-csv", csvPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("analyze -csv exited %d: %s", code, stderr.String())
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if !strings.HasPrefix(lines[0], "step,offered_qps,") || len(lines) != 2 {
		t.Fatalf("analyze CSV:\n%s", csv)
	}
	if !strings.HasSuffix(lines[1], ",true") && !strings.HasSuffix(lines[1], ",false") {
		t.Fatalf("analyze CSV row missing sustained column: %q", lines[1])
	}
}

// TestPanwalkProfile runs the full prefetch-off/prefetch-on panwalk
// comparison through the CLI: both runs must gate clean, the ON run must
// serve prefetched tiles, and both JSONL artifacts must exist.
func TestPanwalkProfile(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "pw")
	var stdout, stderr bytes.Buffer
	// Rate 25 leaves the render pool idle often enough that the
	// prefetcher stays ahead of the walk even with the race detector
	// slowing every render (speculation yields whenever foreground work
	// is queued, so an overdriven walk starves it by design). The p99
	// slack is build-tagged: strict by default, widened under race where
	// instrumented renders serialize speculation with the foreground.
	code := runMain([]string{
		"-profile=panwalk",
		"-rate", "25", "-step-duration", "2s", "-out", prefix,
		"-p99-slack", panwalkTestSlackMS,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("panwalk exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	for _, label := range []string{"prefetch-off", "prefetch-on"} {
		f, err := os.Open(prefix + "-" + label + ".jsonl")
		if err != nil {
			t.Fatal(err)
		}
		envs, err := workload.ReadEnvelopes(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		prefetched := 0
		for _, e := range envs {
			if e.Endpoint != "heatmap" {
				t.Fatalf("%s: non-heatmap envelope %+v", label, e)
			}
			if e.Cache == "prefetched" {
				prefetched++
			}
		}
		if label == "prefetch-off" && prefetched != 0 {
			t.Fatalf("prefetch-off run disclosed %d prefetched tiles", prefetched)
		}
		if label == "prefetch-on" && prefetched == 0 {
			t.Fatal("prefetch-on run disclosed no prefetched tiles")
		}
	}
	if !strings.Contains(stdout.String(), "panwalk gate:") {
		t.Fatalf("missing gate summary in stdout:\n%s", stdout.String())
	}
}
