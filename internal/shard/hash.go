// Package shard turns the single-process SPELL compendium into a
// horizontally scalable service: datasets are assigned to shard backends
// by consistent hashing on dataset id, a Coordinator scatters each query
// over HTTP and merges the per-shard spell.Partial results with global
// weight renormalization (spell.Merge), degrading gracefully when shards
// fail. It is the paper's replicate-and-coordinate pattern — the display
// wall's tile grid at the pixel layer (internal/wall) — applied to the
// query layer.
package shard

import (
	"hash/fnv"
	"sort"
	"strings"
)

// Owners returns the top-r shards of datasetID's rendezvous
// (highest-random-weight) ranking, in rank order: every participant scores
// each (shard, dataset) pair with one hash, entry 0 is the highest score
// (the primary owner), entry 1 the first replica, and so on.
//
// Rendezvous was chosen over a ring for three reasons. (1) It needs no
// shared state and no virtual-node tuning: any process holding the same
// shard list computes the same assignment, which is what lets shard
// daemons self-select their slice from nothing but `-shards` + `-self`
// while the coordinator stays entirely stateless about datasets.
// (2) Balance at our scale comes free: with hundreds-to-thousands of
// datasets over a handful of shards, per-shard load concentrates around
// n/s without the hundreds of virtual nodes a ring needs for the same
// variance. (3) Membership changes move only the keys owned by the
// departed shard (1/s of the data), the same minimal-disruption property
// a ring has, with O(s) lookup cost that is irrelevant for s in the tens.
//
// Replication factor r gives each dataset r distinct owners out of the
// same scores, so raising r only *adds* replicas — the rank-k owner under
// r is the rank-k owner under any r' > k — and a membership change moves
// only ~1/len(shards) of the assignments at each rank independently. r is
// clamped to len(shards). Shard identity is the listed address string:
// reordering the list does not change the assignment, renaming a shard
// does (it is a new participant).
func Owners(datasetID string, shards []string, r int) []string {
	if r > len(shards) {
		r = len(shards)
	}
	if r <= 0 {
		return nil
	}
	type scored struct {
		shard string
		score uint64
	}
	ranked := make([]scored, 0, len(shards))
	for _, s := range shards {
		ranked = append(ranked, scored{shard: s, score: rendezvousScore(s, datasetID)})
	}
	// Deterministic tie-break on the address keeps the assignment a pure
	// function of the (shard set, dataset) pair, as in single ownership.
	sort.Slice(ranked, func(a, b int) bool {
		if ranked[a].score != ranked[b].score {
			return ranked[a].score > ranked[b].score
		}
		return ranked[a].shard < ranked[b].shard
	})
	out := make([]string, r)
	for i := 0; i < r; i++ {
		out[i] = ranked[i].shard
	}
	return out
}

// rendezvousScore hashes one (shard, dataset) pair. FNV-1a over
// shard + NUL + dataset: the separator keeps ("ab","c") and ("a","bc")
// from colliding by concatenation.
func rendezvousScore(shard, datasetID string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(shard))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(datasetID))
	return h.Sum64()
}

// OwnedIndexesR returns the positions (in the given order) of every
// dataset id that lists self among its top-r owners at *any* rank. A shard
// daemon applies this to the full compendium list to select its slice
// while retaining each dataset's global index for partial remapping; it
// loads all of them, so losing any r-1 other shards loses no dataset.
func OwnedIndexesR(datasetIDs []string, shards []string, self string, r int) []int {
	var owned []int
	for i, id := range datasetIDs {
		for _, o := range Owners(id, shards, r) {
			if o == self {
				owned = append(owned, i)
				break
			}
		}
	}
	return owned
}

// GroupIndexes returns the positions of the datasets whose ordered top-r
// owner tuple equals owners, under the given shard set. This is the shared
// vocabulary of the replicated scatter: the coordinator partitions the
// dataset list into ownership groups (distinct owner tuples) and asks one
// replica per group; the shard recomputes the same set from the request's
// (shards, r, owners) and serves exactly those datasets it holds — both
// sides derive the group from the same pure function, so no dataset can be
// claimed twice in one merge.
func GroupIndexes(datasetIDs []string, shards []string, r int, owners []string) []int {
	var idx []int
	for i, id := range datasetIDs {
		got := Owners(id, shards, r)
		if len(got) != len(owners) {
			continue
		}
		match := true
		for k := range got {
			if got[k] != owners[k] {
				match = false
				break
			}
		}
		if match {
			idx = append(idx, i)
		}
	}
	return idx
}

// Groups returns the distinct ordered top-r owner tuples of the dataset
// list, in first-seen catalog order. This ordering is load-bearing shared
// vocabulary: the coordinator's scatter and the distributed-enrichment
// slice assignment both index it — background slice gi of G belongs to
// group gi of the G groups — so coordinator and shard must derive the
// identical list from the identical (catalog, shards, r) inputs, which
// this pure function guarantees.
func Groups(datasetIDs []string, shards []string, r int) [][]string {
	var groups [][]string
	seen := make(map[string]bool)
	for _, id := range datasetIDs {
		owners := Owners(id, shards, r)
		key := strings.Join(owners, "\x00")
		if !seen[key] {
			seen[key] = true
			groups = append(groups, owners)
		}
	}
	return groups
}

// GroupIndex finds the position of an owner tuple in Groups' derivation,
// or -1. A shard uses it to translate an EnrichRequest's Owners into the
// background slice index it must tally.
func GroupIndex(groups [][]string, owners []string) int {
	for gi, g := range groups {
		if len(g) != len(owners) {
			continue
		}
		match := true
		for k := range g {
			if g[k] != owners[k] {
				match = false
				break
			}
		}
		if match {
			return gi
		}
	}
	return -1
}

// Generation fingerprints a shard set: a stable hash of the sorted
// addresses. The daemon bakes it into merged-result cache keys, so a
// coordinator restarted against a different shard topology can never
// serve results merged over the old one.
func Generation(shards []string) uint64 {
	sorted := append([]string(nil), shards...)
	sort.Strings(sorted)
	h := fnv.New64a()
	for _, s := range sorted {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}
