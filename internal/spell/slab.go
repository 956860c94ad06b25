package spell

import (
	"math"

	"forestview/internal/microarray"
	"forestview/internal/stats"
)

// slab is one dataset of the compendium in scoring-ready form. Instead of a
// [][]float64 of z-rows plus a map from gene ID to row, a slab keeps:
//
//   - z: every row's z-scores (NaN where missing), back to back in one
//     contiguous []float64 (row r occupies z[r*nExp : (r+1)*nExp]), so a
//     search streams through the dataset with no pointer chasing and each
//     (gene, experiment) cell costs one float64;
//   - fast: the per-row mask of complete, non-constant rows with ≥2
//     experiments. A pair with a slow row runs the NaN-pairwise
//     stats.Pearson on the two z rows, exactly as the reference scorer;
//   - mean/inv: for a fast row, the mean of its z row and the inverse norm
//     of the centered z row — two numbers that make its centered unit form
//     (z − mean)·inv implicit. For two fast rows Pearson correlation is the
//     dot product of their unit forms, which unitDot reads off one dot
//     product of the z rows, so the kernel's fast path needs no second copy
//     of any cell;
//   - gids/rowOf: both directions of the global integer gene index, so the
//     scoring loops never touch a string or a map.
type slab struct {
	nExp  int
	gids  []int32 // row -> global gene index
	rowOf []int32 // global gene index -> row in this dataset, -1 if absent
	z     []float64
	fast  []bool
	mean  []float64 // row -> mean of the z row (fast rows only)
	inv   []float64 // row -> 1/‖z row − mean‖ (fast rows only)
}

// buildSlab prepares ds against the engine's global gene index. numGenes is
// the size of the global index (len of the engine's order slice).
func buildSlab(ds *microarray.Dataset, gid map[string]int, numGenes int) *slab {
	nG, nE := ds.NumGenes(), ds.NumExperiments()
	s := &slab{
		nExp:  nE,
		gids:  make([]int32, nG),
		rowOf: make([]int32, numGenes),
		z:     make([]float64, nG*nE),
		fast:  make([]bool, nG),
		mean:  make([]float64, nG),
		inv:   make([]float64, nG),
	}
	for i := range s.rowOf {
		s.rowOf[i] = -1
	}
	for g := 0; g < nG; g++ {
		gi := gid[ds.Genes[g].ID]
		s.gids[g] = int32(gi)
		s.rowOf[gi] = int32(g)
		zr := s.zrow(int32(g))
		stats.ZScoresInto(zr, ds.Row(g))
		s.mean[g], s.inv[g], s.fast[g] = centerNorm(zr)
	}
	return s
}

// centerNorm returns the mean of xs and the inverse Euclidean norm of
// xs − mean, the two numbers stats.CenterUnitNormInto scales a row to its
// centered unit form with; ok is false, as there, when xs has a missing
// value, fewer than two entries, or zero spread.
func centerNorm(xs []float64) (mean, inv float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, false
	}
	sum := 0.0
	for _, v := range xs {
		if math.IsNaN(v) {
			return 0, 0, false
		}
		sum += v
	}
	mean = sum / float64(len(xs))
	ss := 0.0
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	if ss == 0 {
		return 0, 0, false
	}
	return mean, 1 / math.Sqrt(ss), true
}

// zrow returns the z-scored row r (may contain NaN for missing values).
func (s *slab) zrow(r int32) []float64 {
	return s.z[int(r)*s.nExp : (int(r)+1)*s.nExp]
}

// unitDot is the dot product of the centered unit forms of fast rows a and
// b — their Pearson correlation — from one dot product of the z rows:
// Σ(za−ma)(zb−mb) = Σ za·zb − n·ma·mb.
func (s *slab) unitDot(a, b int32) float64 {
	n := float64(s.nExp)
	return (stats.Dot(s.zrow(a), s.zrow(b)) - n*s.mean[a]*s.mean[b]) * s.inv[a] * s.inv[b]
}

// queryRows returns the rows of this dataset measuring the given global
// gene indices, and whether every one of them has a unit form (which
// unlocks the pre-summed fast path in the scoring stage).
func (s *slab) queryRows(qgids []int) (rows []int32, allFast bool) {
	allFast = true
	for _, gi := range qgids {
		r := s.rowOf[gi]
		if r < 0 {
			continue
		}
		rows = append(rows, r)
		if !s.fast[r] {
			allFast = false
		}
	}
	return rows, allFast
}
