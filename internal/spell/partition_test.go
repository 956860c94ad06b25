package spell

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/synth"
)

// TestMergeRandomPartitions is the property form of TestMergeMatchesSearch:
// for random assignments of the compendium's datasets to 1–7 shards (some
// of them empty), random queries and every result-shaping option, Merge
// over the shards' partials — in shuffled order — must match the
// single-process Search to 1e-12, rank order differing only among exact
// ties. With missing values in the compendium, pairs of a complete row
// (stored as its unit form) and an incomplete one (stored as z-scores)
// fall inside every shard.
func TestMergeRandomPartitions(t *testing.T) {
	u := synth.NewUniverse(200, 8, 71)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 9, MinExperiments: 6, MaxExperiments: 18,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.06, Seed: 72,
	})
	dss = append(dss, disjointDataset("disjoint", 25, 9, 73))
	full, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	ids := u.GeneIDs()
	opts := []Options{{}, {IncludeQuery: true}, {UniformWeights: true}, {MaxGenes: 20}, {MaxGenes: 7, IncludeQuery: true}}
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 40; trial++ {
		var query []string
		if trial%2 == 0 {
			mod := u.ModuleGeneIDs(rng.Intn(8))
			query = mod[:2+rng.Intn(4)]
		} else {
			for n := 2 + rng.Intn(4); len(query) < n; {
				query = append(query, ids[rng.Intn(len(ids))])
			}
		}
		opt := opts[rng.Intn(len(opts))]
		nParts := 1 + rng.Intn(7)
		assign := make([][]int, nParts)
		for di := range dss {
			p := rng.Intn(nParts)
			assign[p] = append(assign[p], di)
		}
		name := fmt.Sprintf("trial-%d-parts-%d", trial, nParts)
		want, err := full.Search(query, opt)
		if err != nil {
			t.Fatalf("%s: search: %v", name, err)
		}
		parts := make([]Partial, 0, nParts)
		for _, globals := range assign {
			parts = append(parts, partitionPartial(t, full, dss, globals, query, opt))
		}
		rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
		got, err := Merge(parts, opt)
		if err != nil {
			t.Fatalf("%s: merge: %v", name, err)
		}
		t.Run(name, func(t *testing.T) { assertResultsMatch(t, got, want, 1e-12) })
	}
}

// partitionPartial is one shard's answer over the datasets globals (global
// indexes, ascending): its own engine over that slice, dataset indexes
// remapped to the global order as the shard role does. An empty part
// answers the empty partial a replica gives for an empty ownership subset.
func partitionPartial(t *testing.T, full *Engine, dss []*microarray.Dataset, globals []int, query []string, opt Options) Partial {
	t.Helper()
	if len(globals) == 0 {
		p, err := full.PartialSearchSubsetCtx(context.Background(), query, []int{}, opt)
		if err != nil {
			t.Fatal(err)
		}
		return *p
	}
	slice := make([]*microarray.Dataset, len(globals))
	for i, di := range globals {
		slice[i] = dss[di]
	}
	se, err := NewEngine(slice)
	if err != nil {
		t.Fatal(err)
	}
	p, err := se.PartialSearch(query, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Datasets {
		p.Datasets[i].Index = globals[p.Datasets[i].Index]
	}
	return *p
}
