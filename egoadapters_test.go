package pmjoin

import (
	"math"
	"math/rand"
	"testing"

	"pmjoin/internal/geom"
	"pmjoin/internal/join"
)

// refVectorCompare is the reference verification the vector EGO adapter's
// kernel threshold must reproduce: Dist against eps under the norm.
func refVectorCompare(n geom.Norm, eps float64, a, b geom.Vector) bool {
	return n.Dist(a, b) <= eps
}

// refSeriesCompare is the reference verification the series EGO adapter's
// kernel threshold must reproduce: early-exit squared L2 against eps².
func refSeriesCompare(eps float64, wa, wb []float64) bool {
	epsSq := eps * eps
	var sum float64
	for x := range wa {
		d := wa[x] - wb[x]
		sum += d * d
		if sum > epsSq {
			return false
		}
	}
	return true
}

// TestEGOCompareMatchesReference pins the EGO adapters' Compare against the
// reference verifications for every object pair of random pages, under L1,
// L2, L∞ and a PowInt norm and for series windows. Half the draws sit on a
// coarse grid so distances often land exactly on eps. The modeled cost must
// match the per-dimension model bit for bit too.
func TestEGOCompareMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sys := NewSystem(DiskModel{})
	draw := func(n, dim int, grid bool) []geom.Vector {
		out := make([]geom.Vector, n)
		for i := range out {
			v := make(geom.Vector, dim)
			for d := range v {
				if grid {
					v[d] = float64(rng.Intn(5)) * 0.25
				} else {
					v[d] = rng.Float64()
				}
			}
			out[i] = v
		}
		return out
	}
	matches := 0
	for iter := 0; iter < 200; iter++ {
		dim := []int{1, 2, 3, 8, 17}[rng.Intn(5)]
		grid := rng.Intn(2) == 0
		va, vb := draw(6, dim, grid), draw(6, dim, grid)
		eps := 0.25 * float64(1+rng.Intn(4)) * math.Sqrt(float64(dim))
		cost := egoBaseCost + egoPerDimCost*float64(dim)

		pa, pb := &join.VectorPage{Vecs: va}, &join.VectorPage{Vecs: vb}
		for _, n := range []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}} {
			ad := sys.egoAdapter(&Dataset{kind: KindVector, norm: n}, eps, false)
			for i := range va {
				for k := range vb {
					ok, c := ad.Compare(pa, i, pb, k)
					want := refVectorCompare(n, eps, va[i], vb[k])
					if ok != want || math.Float64bits(c) != math.Float64bits(cost) {
						t.Fatalf("vector %v dim %d eps %g (%d,%d): got (%v, %g), want (%v, %g)",
							n, dim, eps, i, k, ok, c, want, cost)
					}
					if want {
						matches++
					}
				}
			}
		}

		sa, sb := &join.SeriesPage{}, &join.SeriesPage{}
		for i := range va {
			sa.Windows = append(sa.Windows, va[i])
			sb.Windows = append(sb.Windows, vb[i])
		}
		ad := sys.egoAdapter(&Dataset{kind: KindSeries, scale: 1}, eps, false)
		for i := range sa.Windows {
			for k := range sb.Windows {
				ok, c := ad.Compare(sa, i, sb, k)
				want := refSeriesCompare(eps, sa.Windows[i], sb.Windows[k])
				if ok != want || math.Float64bits(c) != math.Float64bits(cost) {
					t.Fatalf("series dim %d eps %g (%d,%d): got (%v, %g), want (%v, %g)",
						dim, eps, i, k, ok, c, want, cost)
				}
			}
		}
	}
	if matches == 0 {
		t.Fatal("no reference matches; the comparison is vacuous")
	}
}
