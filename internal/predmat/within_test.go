package predmat

import (
	"math/rand"
	"reflect"
	"testing"

	"pmjoin/internal/geom"
)

// lowerBoundOnly hides a predictor's KernelBound, so Build falls back to the
// reference LowerBound(a, b) <= eps test.
type lowerBoundOnly struct{ Predictor }

// TestKernelBoundMatchesLowerBound pins Within's kernel path against the
// reference: for every norm and a non-unit scale, a matrix built through
// NormPredictor's KernelBound marks exactly the entries, with exactly the
// construction counters, of the same build through LowerBound alone.
func TestKernelBoundMatchesLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}} {
		for _, scale := range []float64{1, 2.5} {
			ta, tb, _, _ := buildTrees(t, rng, 250, 200, 3, 6)
			eps := 0.05 + rng.Float64()*0.1
			pred := NormPredictor{Norm: n, Scale: scale}
			if pred.KernelBound(eps) == nil {
				t.Fatalf("%v scale %g: no kernel bound", n, scale)
			}
			build := func(p Predictor) ([]Entry, BuildStats) {
				var st BuildStats
				m, err := Build(ta.Root(), tb.Root(), ta.NumPages(), tb.NumPages(), eps, p,
					BuildOptions{FilterDepth: DefaultFilterDepth, Stats: &st})
				if err != nil {
					t.Fatal(err)
				}
				return m.Entries(), st
			}
			got, gotStats := build(pred)
			want, wantStats := build(lowerBoundOnly{pred})
			if len(want) == 0 {
				t.Fatalf("%v scale %g: empty matrix; the comparison is vacuous", n, scale)
			}
			if !reflect.DeepEqual(got, want) || gotStats != wantStats {
				t.Errorf("%v scale %g: kernel bound marked %d entries %+v, LowerBound %d entries %+v",
					n, scale, len(got), gotStats, len(want), wantStats)
			}
		}
	}
}
