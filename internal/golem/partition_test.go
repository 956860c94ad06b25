package golem

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestMergeCountsRandomPartitions is the property form of
// TestMergeCountsMatchesAnalyze: for random universes (sizes off the 64-bit
// word grid), random selections, random slice counts — up to more slices
// than the bitset has words, so some word ranges are empty — and a shuffled
// merge order, MergeCounts over the complete partition must reproduce
// Analyze.
func TestMergeCountsRandomPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	opts := []Options{{}, {MinSelected: 2}, {MaxPValue: 0.05}, {MinSelected: 3, MaxPValue: 0.2}}
	for trial := 0; trial < 12; trial++ {
		nGenes := 40 + rng.Intn(900)
		enr, sel := randomEnrichmentFixture(t, rng, 60+rng.Intn(200), nGenes)
		cat := enr.Catalog()
		words := (nGenes + 63) / 64
		for rep := 0; rep < 3; rep++ {
			opt := opts[rng.Intn(len(opts))]
			slices := 1 + rng.Intn(words+3)
			name := fmt.Sprintf("trial-%d-genes-%d-slices-%d", trial, nGenes, slices)
			want, err := enr.Analyze(sel, opt)
			if err != nil {
				t.Fatalf("%s: Analyze %+v: %v", name, opt, err)
			}
			parts := make([]*PartialCounts, slices)
			for s := range parts {
				if parts[s], err = enr.PartialAnalyze(sel, s, slices); err != nil {
					t.Fatalf("%s: slice %d: %v", name, s, err)
				}
			}
			rng.Shuffle(len(parts), func(i, j int) { parts[i], parts[j] = parts[j], parts[i] })
			got, err := MergeCounts(cat, parts, opt)
			if err != nil {
				t.Fatalf("%s: merge %+v: %v", name, opt, err)
			}
			t.Run(name, func(t *testing.T) { assertEnrichmentsEqual(t, got, want, 1e-12) })
		}
	}
}
