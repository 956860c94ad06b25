package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestDot(t *testing.T) {
	if d := Dot(nil, nil); d != 0 {
		t.Fatalf("Dot(nil, nil) = %v", d)
	}
	if d := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
	// Length mismatch uses the common prefix.
	if d := Dot([]float64{1, 2, 3, 10}, []float64{4, 5, 6}); d != 32 {
		t.Fatalf("Dot with mismatched lengths = %v, want 32", d)
	}
	// Lengths around the unroll boundary agree with the naive loop.
	rng := rand.New(rand.NewSource(5))
	for n := 1; n <= 9; n++ {
		xs := make([]float64, n)
		ys := make([]float64, n)
		naive := 0.0
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
			naive += xs[i] * ys[i]
		}
		if d := Dot(xs, ys); math.Abs(d-naive) > 1e-12 {
			t.Fatalf("n=%d: Dot = %v, naive = %v", n, d, naive)
		}
	}
}

func TestCenterUnitNorm(t *testing.T) {
	if _, ok := CenterUnitNorm([]float64{1}); ok {
		t.Fatal("single-entry vector should have no unit form")
	}
	if _, ok := CenterUnitNorm([]float64{2, 2, 2}); ok {
		t.Fatal("constant vector should have no unit form")
	}
	if _, ok := CenterUnitNorm([]float64{1, math.NaN(), 3}); ok {
		t.Fatal("vector with a missing value should have no unit form")
	}
	u, ok := CenterUnitNorm([]float64{1, 2, 3, 4})
	if !ok {
		t.Fatal("well-formed vector rejected")
	}
	sum, ss := 0.0, 0.0
	for _, v := range u {
		sum += v
		ss += v * v
	}
	if math.Abs(sum) > 1e-12 || math.Abs(ss-1) > 1e-12 {
		t.Fatalf("unit form not centered/normalized: sum=%v ss=%v", sum, ss)
	}
}

// TestDotEqualsPearsonOnUnitRows is the identity the SPELL dense kernel
// rests on: for complete rows, Pearson == Dot of the centered unit forms.
func TestDotEqualsPearsonOnUnitRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		ux, okx := CenterUnitNorm(xs)
		uy, oky := CenterUnitNorm(ys)
		if !okx || !oky {
			continue
		}
		want := Pearson(xs, ys)
		got := Clamp(Dot(ux, uy), -1, 1)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d): Dot=%v Pearson=%v", trial, n, got, want)
		}
	}
}

func TestZScoresInto(t *testing.T) {
	xs := []float64{1, math.NaN(), 3, 5}
	dst := make([]float64, len(xs))
	ZScoresInto(dst, xs)
	want := ZScores(xs)
	for i := range want {
		if math.IsNaN(want[i]) != math.IsNaN(dst[i]) {
			t.Fatalf("missing mismatch at %d", i)
		}
		if !math.IsNaN(want[i]) && dst[i] != want[i] {
			t.Fatalf("ZScoresInto[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestUnitNormInto(t *testing.T) {
	xs := []float64{3, 4}
	dst := make([]float64, 2)
	if !UnitNormInto(dst, xs) {
		t.Fatal("complete row rejected")
	}
	if math.Abs(dst[0]-0.6) > 1e-15 || math.Abs(dst[1]-0.8) > 1e-15 {
		t.Fatalf("unit form = %v, want [0.6 0.8]", dst)
	}
	// Undefined forms: missing values, zero norm, empty, short dst.
	if UnitNormInto(dst, []float64{1, math.NaN()}) {
		t.Fatal("missing value accepted")
	}
	if UnitNormInto(dst, []float64{0, 0}) {
		t.Fatal("zero norm accepted")
	}
	if UnitNormInto(dst, nil) {
		t.Fatal("empty row accepted")
	}
	if UnitNormInto(dst[:1], xs) {
		t.Fatal("short destination accepted")
	}
	// The identity the clustering kernel relies on: PearsonUncentered of
	// two rows equals the dot product of their unit forms.
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 40; trial++ {
		n := r.Intn(20) + 1
		a, b := make([]float64, n), make([]float64, n)
		for i := range a {
			a[i], b[i] = r.NormFloat64()+1, r.NormFloat64()-1
		}
		ua, ub := make([]float64, n), make([]float64, n)
		if !UnitNormInto(ua, a) || !UnitNormInto(ub, b) {
			continue // zero-norm fluke
		}
		want := PearsonUncentered(a, b)
		got := Clamp(Dot(ua, ub), -1, 1)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (n=%d): Dot=%v PearsonUncentered=%v", trial, n, got, want)
		}
	}
}

// TestZScoresIntoMatchesMeanStdDev: the fused ZScoresInto must reproduce
// the plain definition — (v - Mean) / StdDev, 0 for a constant or
// undefined spread, NaN where missing — bit for bit, on random rows with
// missing cells, infinities, huge values and constants.
func TestZScoresIntoMatchesMeanStdDev(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e308, -1e308, 0.1, 0}
	for trial := 0; trial < 2000; trial++ {
		xs := make([]float64, rng.Intn(12))
		c := rng.NormFloat64()
		for i := range xs {
			switch r := rng.Float64(); {
			case r < 0.15:
				xs[i] = specials[rng.Intn(len(specials))]
			case trial%5 == 0:
				xs[i] = c // constant rows
			default:
				xs[i] = rng.NormFloat64() * 3
			}
		}
		m, sd := Mean(xs), StdDev(xs)
		got := make([]float64, len(xs))
		ZScoresInto(got, xs)
		for i, v := range xs {
			var want float64
			switch {
			case math.IsNaN(v):
				want = math.NaN()
			case math.IsNaN(sd) || sd == 0:
				want = 0
			default:
				want = (v - m) / sd
			}
			if got[i] != want && !(math.IsNaN(got[i]) && math.IsNaN(want)) {
				t.Fatalf("row %v cell %d: %v, want %v", xs, i, got[i], want)
			}
		}
	}
}
