package spell

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"forestview/internal/microarray"
	"forestview/internal/stats"
	"forestview/internal/synth"
)

// TestSlabStoresOneFloatPerCell pins the slab's footprint: across every
// []float64 the slab holds, exactly one float64 per (gene, experiment) cell
// plus two per row (a fast row's mean and inverse norm). A second per-cell
// array, such as a stored unit form beside the z rows, fails the count.
// The stored row must be the z-scores, the fast bit must match
// stats.CenterUnitNormInto, and (z − mean)·inv must be that unit form.
func TestSlabStoresOneFloatPerCell(t *testing.T) {
	u := synth.NewUniverse(180, 6, 5)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 5, MinExperiments: 6, MaxExperiments: 15,
		ActiveFraction: 0.5, Noise: 0.3, MissingRate: 0.05, Seed: 6,
	})
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	var sawFast, sawSlow bool
	for di, sl := range e.slabs {
		ds := dss[di]
		want := ds.NumGenes()*ds.NumExperiments() + 2*ds.NumGenes()
		floats := 0
		v := reflect.ValueOf(sl).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == reflect.TypeOf([]float64(nil)) {
				floats += f.Cap()
			}
		}
		if floats != want {
			t.Fatalf("dataset %d: slab holds %d float64s, want %d (cells + 2 per row)", di, floats, want)
		}
		z := make([]float64, ds.NumExperiments())
		unit := make([]float64, ds.NumExperiments())
		for g := 0; g < ds.NumGenes(); g++ {
			stats.ZScoresInto(z, ds.Row(g))
			for i, got := range sl.zrow(int32(g)) {
				if got != z[i] && !(math.IsNaN(got) && math.IsNaN(z[i])) {
					t.Fatalf("dataset %d row %d cell %d: stored %v, want z-score %v", di, g, i, got, z[i])
				}
			}
			fast := stats.CenterUnitNormInto(unit, z)
			if fast != sl.fast[g] {
				t.Fatalf("dataset %d row %d: fast = %v, want %v", di, g, sl.fast[g], fast)
			}
			if !fast {
				sawSlow = true
				continue
			}
			sawFast = true
			for i, zv := range z {
				if d := math.Abs((zv-sl.mean[g])*sl.inv[g] - unit[i]); d > 1e-15 {
					t.Fatalf("dataset %d row %d cell %d: implicit unit form off by %g", di, g, i, d)
				}
			}
		}
	}
	if !sawFast || !sawSlow {
		t.Fatalf("fixture must hold both row kinds (fast %v, slow %v)", sawFast, sawSlow)
	}
}

// TestRowCorrMatchesZPearson: every pair with a slow row must compute
// exactly the NaN-pairwise Pearson of the two rows' z-scores — bit for
// bit — and a fast×fast pair (the unit-form dot product) must agree with it
// to 1e-12.
func TestRowCorrMatchesZPearson(t *testing.T) {
	u := synth.NewUniverse(120, 4, 8)
	dss, _ := u.GenerateCompendium(synth.CompendiumSpec{
		NumDatasets: 2, MinExperiments: 5, MaxExperiments: 12,
		ActiveFraction: 0.6, Noise: 0.3, MissingRate: 0.08, Seed: 9,
	})
	e, err := NewEngine(dss)
	if err != nil {
		t.Fatal(err)
	}
	mixed := 0
	for di, sl := range e.slabs {
		n := len(sl.fast)
		for a := 0; a < n; a++ {
			za := stats.ZScores(dss[di].Row(a))
			for b := a + 1; b < n && b < a+25; b++ {
				want := stats.Pearson(za, stats.ZScores(dss[di].Row(b)))
				got := rowCorr(sl, int32(a), int32(b))
				if sl.fast[a] && sl.fast[b] {
					if math.Abs(got-want) > 1e-12 {
						t.Fatalf("dataset %d fast rows %d,%d: dot %v, z Pearson %v", di, a, b, got, want)
					}
					continue
				}
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("dataset %d rows %d,%d (fast %v,%v): %v, z Pearson %v",
						di, a, b, sl.fast[a], sl.fast[b], got, want)
				}
				if sl.fast[a] != sl.fast[b] {
					mixed++
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("fixture produced no fast×slow pair")
	}
}

// TestSearchIllConditionedMixedPair: a complete row that is nearly
// constant over the cells an incomplete row measures. Their correlation
// hangs on the last bits of the shared cells, so computing it from the
// complete row's unit form instead of its z-scores moves it far past 1e-12
// (the fixture checks that it still does) — the reason a slab keeps z rows
// and only an implicit unit form. Search must match ReferenceSearch to
// 1e-12, in coherence and in every gene score.
func TestSearchIllConditionedMixedPair(t *testing.T) {
	nan := math.NaN()
	ds := &microarray.Dataset{Name: "ill", Experiments: make([]string, 5)}
	for i, row := range [][]float64{
		{1, 1 + 1e-14, 1 + 3e-14, 5, 3},
		{2, 1, 3, nan, nan},
		{0.3, 0.3 + 1e-15, 0.3 - 2e-15, 9, -4},
		{4, 1, 2, 8, 5},
		{1, 2, 3, nan, 0},
	} {
		id := fmt.Sprintf("G%d", i)
		ds.Genes = append(ds.Genes, microarray.Gene{ID: id, Name: id})
		ds.Data = append(ds.Data, row)
	}
	e, err := NewEngine([]*microarray.Dataset{ds})
	if err != nil {
		t.Fatal(err)
	}
	sl := e.slabs[0]
	if !sl.fast[0] || sl.fast[1] {
		t.Fatalf("fixture rows must be fast and slow: %v", sl.fast)
	}
	z0, z1 := sl.zrow(0), sl.zrow(1)
	unit0, _ := stats.CenterUnitNorm(z0)
	if d := math.Abs(stats.Pearson(unit0, z1) - stats.Pearson(z0, z1)); d <= 1e-12 {
		t.Fatalf("fixture no longer ill-conditioned: unit-form Pearson within %g of z Pearson", d)
	}
	for _, query := range [][]string{{"G0", "G1"}, {"G1", "G2"}, {"G1", "G4"}, {"G0", "G3"}} {
		for _, opt := range []Options{{}, {IncludeQuery: true}, {UniformWeights: true}} {
			got, err := e.Search(query, opt)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.ReferenceSearch(query, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertResultsMatch(t, got, want, 1e-12)
		}
	}
}

// TestNewEngineRejectsRaggedRows: a hand-built dataset whose rows are not
// NumExperiments long is refused with an error, never a panic or a
// zero-padded slab row.
func TestNewEngineRejectsRaggedRows(t *testing.T) {
	for _, row := range [][]float64{{1, 2}, {1, 2, 3, 4}} {
		ds := &microarray.Dataset{
			Name:        "ragged",
			Experiments: make([]string, 3),
			Genes:       []microarray.Gene{{ID: "A"}, {ID: "B"}},
			Data:        [][]float64{{1, 2, 3}, row},
		}
		if _, err := NewEngine([]*microarray.Dataset{ds}); err == nil {
			t.Fatalf("row of %d cells in a 3-experiment dataset: no error", len(row))
		}
	}
}
