package spell

import (
	"math/rand"
	"sort"
	"testing"

	"forestview/internal/synth"
)

// TestTopKMatchesStableSort: selecting the k best gene indices must give
// exactly the prefix of the full stable sort by score descending that
// Search used to run — ties included, for every k from "all" down to 1, on
// score vectors dense with exact ties.
func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(60)
		score := make([]float64, n)
		for i := range score {
			score[i] = float64(rng.Intn(8)) / 4 // few distinct values: many ties
		}
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		want := append([]int32(nil), ids...)
		sort.SliceStable(want, func(a, b int) bool { return score[want[a]] > score[want[b]] })
		for _, k := range []int{0, -1, 1, 2, n / 3, n - 1, n, n + 5} {
			got := topK(append([]int32(nil), ids...), k, func(a, b int32) bool {
				return score[a] > score[b] || score[a] == score[b] && a < b
			})
			w := want
			if k > 0 && k < len(w) {
				w = w[:k]
			}
			if len(got) != len(w) {
				t.Fatalf("n=%d k=%d: %d entries, want %d", n, k, len(got), len(w))
			}
			for i := range w {
				if got[i] != w[i] {
					t.Fatalf("n=%d k=%d: rank %d = %d, want %d", n, k, i, got[i], w[i])
				}
			}
		}
	}
}

// TestMergeCutReleasesUnrankedGenes: a Merge result cut to MaxGenes holds
// only the ranked entries, not the backing array of every scored gene —
// the coordinator caches merged results and accounts them by len(Genes).
func TestMergeCutReleasesUnrankedGenes(t *testing.T) {
	u := synth.NewUniverse(150, 5, 3)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 3, MinExperiments: 6, MaxExperiments: 10,
		ActiveFraction: 0.5, Noise: 0.3, Seed: 4,
	})
	query := u.ModuleGeneIDs(1)[:3]
	opt := Options{MaxGenes: 10}
	res, err := Merge(shardSplit(t, dss, 2, query, opt), opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Genes) != 10 || cap(res.Genes) != 10 {
		t.Fatalf("cut result: len %d cap %d, want 10 and 10", len(res.Genes), cap(res.Genes))
	}
}
