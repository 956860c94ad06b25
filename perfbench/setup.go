package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"forestview/internal/cluster"
	"forestview/internal/core"
	"forestview/internal/golem"
	"forestview/internal/microarray"
	"forestview/internal/ontology"
	"forestview/internal/server"
	"forestview/internal/shard"
	"forestview/internal/spell"
	"forestview/internal/synth"
	"forestview/internal/workload"
)

// Daemon defaults mirrored from cmd/forestviewd's flags, so the benchmark
// measures the configuration an operator gets without tuning.
const (
	daemonCacheBytes      = 64 << 20 // -cache-mb 64
	daemonPrefetchWorkers = 2        // -prefetch-workers 2
	daemonReplication     = 2
	fleetShards           = 3
	// fleetCacheBytes sizes the coordinator's merged-result cache and the
	// shards' partial caches so that nothing stays resident: every fleet
	// request scatters.
	fleetCacheBytes = 16
	// dataSeed fixes the compendium; --seed varies only the op stream, so
	// runs with different seeds measure the same program on the same data.
	dataSeed = 20070326
)

// shape holds a workload's sizes, rates and mix; README.md gives the reasons.
type shape struct {
	genes, modules, datasets int
	minExp, maxExp           int
	paneGenes, panes         int          // 0 panes: the compendium datasets are the panes
	rate                     float64      // fixed open-loop rate, requests/s
	capacityGuess            float64      // where the capacity ladder starts, requests/s
	mix                      workload.Mix // op weights
	tileRows                 int          // explore: the tile walk's initial row window
	tileSize                 int          // tile width and height in pixels
}

var shapes = map[string]shape{
	"explore": {genes: 2400, modules: 40, datasets: 4, minExp: 12, maxExp: 20,
		rate: 300, capacityGuess: 2000, mix: workload.DefaultMix(), tileRows: 256, tileSize: 128},
	"cold": {genes: 4000, modules: 200, datasets: 20, minExp: 12, maxExp: 24,
		paneGenes: 2000, panes: 2,
		rate: 50, capacityGuess: 250, mix: workload.Mix{Search: 1, Enrich: 2, Heatmap: 2}, tileSize: 128},
	"fleet": {genes: 4000, modules: 200, datasets: 20, minExp: 12, maxExp: 24,
		paneGenes: 2000, panes: 2,
		rate: 20, capacityGuess: 110, mix: workload.Mix{Search: 1, Enrich: 2, Heatmap: 2}, tileSize: 128},
}

// inputs are the benchmark's synthetic data: generated before set-up and
// excluded from setup_s.
type inputs struct {
	shape
	workload  string
	compendia []*microarray.Dataset // SPELL compendium
	panes     []*microarray.Dataset // heatmap panes
	paneRows  []int
	onto      *ontology.Ontology
	ann       *ontology.Annotations
	genes     []string
}

func makeInputs(name string) (*inputs, error) {
	sh, ok := shapes[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (explore, cold or fleet)", name)
	}
	u := synth.NewUniverse(sh.genes, sh.modules, dataSeed)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: sh.datasets, MinExperiments: sh.minExp, MaxExperiments: sh.maxExp,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.02, Seed: dataSeed + 1,
	})
	in := &inputs{shape: sh, workload: name, compendia: dss, panes: dss, genes: u.GeneIDs()}
	if sh.panes > 0 {
		pu := synth.NewUniverse(sh.paneGenes, 40, dataSeed+2)
		in.panes, _ = pu.GenerateCompendium(synth.CompendiumSpec{
			NumDatasets: sh.panes, MinExperiments: sh.minExp, MaxExperiments: sh.maxExp,
			ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.02, Seed: dataSeed + 3,
		})
	}
	for _, p := range in.panes {
		in.paneRows = append(in.paneRows, p.NumGenes())
	}
	var leaves []string
	for _, m := range u.Modules {
		leaves = append(leaves, m.Name)
	}
	onto, leafOf, err := ontology.Synthetic(ontology.SyntheticSpec{LeafNames: leaves, Seed: dataSeed + 4})
	if err != nil {
		return nil, fmt.Errorf("synthetic ontology: %w", err)
	}
	in.onto, in.ann = onto, ontology.AnnotateFromModules(u.Annotations(), leafOf)
	return in, nil
}

// buildTimes are the set-up costs of single layers, in milliseconds.
type buildTimes struct {
	engine, enricher, cluster, pyramid float64
}

// system is one running deployment under test plus the handles the
// correctness checks and the traced replay call directly.
type system struct {
	url   string
	srv   *server.Server // the load target: single daemon or coordinator
	coord *shard.Coordinator

	engine   *spell.Engine   // single role: the served engine; fleet: a reference over the whole compendium
	enricher *golem.Enricher // likewise
	panes    []*core.ClusteredDataset

	// Fleet only: shard identities, per-shard engines and enrichers, the
	// global dataset indexes each shard holds, and the global catalog.
	shardIDs      []string
	shardEngines  map[string]*spell.Engine
	shardEnrich   map[string]*golem.Enricher
	shardHoldings map[string][]int
	datasetIDs    []string

	build   buildTimes
	closers []func()
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / float64(time.Millisecond) }

// clusterPanes clusters every pane with the daemon's default tree options
// and builds its pyramid, timing the two layers separately.
func clusterPanes(raw []*microarray.Dataset, bt *buildTimes) ([]*core.ClusteredDataset, error) {
	out := make([]*core.ClusteredDataset, len(raw))
	for i, ds := range raw {
		t := time.Now()
		cd, err := core.Cluster(ds, core.ClusterOptions{Metric: cluster.PearsonDist, Linkage: cluster.AverageLinkage})
		if err != nil {
			return nil, err
		}
		bt.cluster += msSince(t)
		t = time.Now()
		cd.Pyramid(core.PyramidOptions{})
		bt.pyramid += msSince(t)
		out[i] = cd
	}
	return out, nil
}

// startSystem performs everything setup_s times: kernel construction,
// clustering, pyramid build, server construction and listeners, and for a
// fleet the first catalog fetches through the coordinator.
func startSystem(in *inputs) (*system, error) {
	if in.workload == "fleet" {
		return startFleet(in)
	}
	sys := &system{}
	ok := false
	defer func() {
		if !ok {
			sys.close()
		}
	}()
	t := time.Now()
	engine, err := spell.NewEngine(in.compendia)
	if err != nil {
		return nil, err
	}
	sys.build.engine = msSince(t)
	t = time.Now()
	enricher, err := golem.NewEnricher(in.onto, in.ann, in.genes)
	if err != nil {
		return nil, fmt.Errorf("enricher: %w", err)
	}
	sys.build.enricher = msSince(t)
	if sys.panes, err = clusterPanes(in.panes, &sys.build); err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{
		Engine:          engine,
		Enricher:        enricher,
		Datasets:        sys.panes,
		CacheBytes:      daemonCacheBytes,
		RenderWorkers:   runtime.GOMAXPROCS(0),
		PrefetchWorkers: daemonPrefetchWorkers,
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv)
	sys.closers = append(sys.closers, srv.Close, hs.Close)
	sys.url, sys.srv, sys.engine, sys.enricher = hs.URL, srv, engine, enricher
	ok = true
	return sys, nil
}

// startFleet boots 3 shard daemons at replication 2 and a coordinator over
// them. The coordinator also holds the heatmap panes (server.New accepts
// panes on any role), so the fleet serves every endpoint the other
// workloads send.
func startFleet(in *inputs) (*system, error) {
	sys := &system{
		shardEngines:  map[string]*spell.Engine{},
		shardEnrich:   map[string]*golem.Enricher{},
		shardHoldings: map[string][]int{},
	}
	ok := false
	defer func() {
		if !ok {
			sys.close()
		}
	}()
	for _, ds := range in.compendia {
		sys.datasetIDs = append(sys.datasetIDs, ds.Name)
	}
	urls := map[string]string{}
	for i := 0; i < fleetShards; i++ {
		sys.shardIDs = append(sys.shardIDs, fmt.Sprintf("shard-%d", i))
	}
	for _, self := range sys.shardIDs {
		owned := shard.OwnedIndexesR(sys.datasetIDs, sys.shardIDs, self, daemonReplication)
		slice := make([]*microarray.Dataset, len(owned))
		for i, gi := range owned {
			slice[i] = in.compendia[gi]
		}
		t := time.Now()
		engine, err := spell.NewEngine(slice)
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", self, err)
		}
		sys.build.engine += msSince(t)
		t = time.Now()
		enricher, err := golem.NewEnricher(in.onto, in.ann, in.genes)
		if err != nil {
			return nil, fmt.Errorf("shard %s enricher: %w", self, err)
		}
		sys.build.enricher += msSince(t)
		ss, err := server.New(server.Config{
			Engine: engine, Enricher: enricher,
			ShardIndexes: owned, ShardDatasetIDs: sys.datasetIDs,
			ShardSelf: self, ShardFleet: sys.shardIDs, ShardReplication: daemonReplication,
			ShardRawDatasets: slice,
			CacheBytes:       fleetCacheBytes,
			RenderWorkers:    runtime.GOMAXPROCS(0),
			PrefetchWorkers:  daemonPrefetchWorkers,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %s: %w", self, err)
		}
		hs := httptest.NewServer(ss)
		sys.closers = append(sys.closers, ss.Close, hs.Close)
		urls[self] = hs.URL
		sys.shardEngines[self], sys.shardEnrich[self], sys.shardHoldings[self] = engine, enricher, owned
	}
	coord, err := shard.NewCoordinator(shard.Config{
		Shards:      sys.shardIDs,
		Replication: daemonReplication,
		Retry:       true,
		Resolve:     func(id string) string { return urls[id] },
	})
	if err != nil {
		return nil, err
	}
	if sys.panes, err = clusterPanes(in.panes, &sys.build); err != nil {
		return nil, err
	}
	// Like forestviewd's coordinator role, the coordinator runs no
	// prefetcher: with a cache that holds nothing, speculation would only
	// burn the cores the scatter needs.
	srv, err := server.New(server.Config{
		Scatter:       coord,
		Datasets:      sys.panes,
		CacheBytes:    fleetCacheBytes,
		RenderWorkers: runtime.GOMAXPROCS(0),
	})
	if err != nil {
		return nil, err
	}
	hs := httptest.NewServer(srv)
	sys.closers = append(sys.closers, srv.Close, hs.Close)
	sys.url, sys.srv, sys.coord = hs.URL, srv, coord
	// The coordinator fetches its dataset and term catalogs lazily on the
	// first scatter; a probe of each kind pays for both inside set-up.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	probe := in.genes[:3]
	if _, _, err := coord.SearchCtx(ctx, probe, spell.Options{MaxGenes: 1}); err != nil {
		return nil, fmt.Errorf("fleet catalog probe: %w", err)
	}
	if _, _, err := coord.EnrichCtx(ctx, probe, golem.Options{}); err != nil {
		return nil, fmt.Errorf("fleet enrich catalog probe: %w", err)
	}
	ok = true
	return sys, nil
}

// attachReferences gives a fleet single-process reference kernels over the
// whole compendium for the correctness checks. They are built outside the
// timed set-up: a fleet deployment does not have them.
func attachReferences(sys *system, in *inputs) error {
	if sys.engine != nil {
		return nil
	}
	engine, err := spell.NewEngine(in.compendia)
	if err != nil {
		return err
	}
	enricher, err := golem.NewEnricher(in.onto, in.ann, in.genes)
	if err != nil {
		return err
	}
	sys.engine, sys.enricher = engine, enricher
	return nil
}
