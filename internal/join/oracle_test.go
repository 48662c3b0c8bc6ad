package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pmjoin/internal/geom"
)

// refVectorJoinPages is the reference comparison loop VectorJoiner.JoinPages
// must reproduce bit for bit: an early-exit squared-L2 loop against eps² for
// L2 (the early exit affects wall time only; the modeled cost charges the
// full comparison), Dist against eps for every other norm.
func refVectorJoinPages(j VectorJoiner, pa, pb *VectorPage, emit func(int, int)) (int64, float64) {
	var comps int64
	dim := 0
	if len(pa.Vecs) > 0 {
		dim = len(pa.Vecs[0])
	}
	if j.Norm == geom.L2 {
		epsSq := j.Eps * j.Eps
		for i, va := range pa.Vecs {
			idI := pa.IDs[i]
			for k, vb := range pb.Vecs {
				if j.Self && idI >= pb.IDs[k] {
					continue
				}
				comps++
				var s float64
				for d := range va {
					x := va[d] - vb[d]
					s += x * x
					if s > epsSq {
						break
					}
				}
				if s <= epsSq {
					emit(idI, pb.IDs[k])
				}
			}
		}
	} else {
		for i, va := range pa.Vecs {
			for k, vb := range pb.Vecs {
				if j.Self && pa.IDs[i] >= pb.IDs[k] {
					continue
				}
				comps++
				if j.Norm.Dist(va, vb) <= j.Eps {
					emit(pa.IDs[i], pb.IDs[k])
				}
			}
		}
	}
	perPair := compareBaseCost + comparePerDimCost*float64(dim)
	return comps, float64(comps) * perPair
}

// refSeriesJoinPages is the reference comparison loop
// SeriesJoiner.JoinPages must reproduce bit for bit: early-exit squared L2
// against eps², with the self-join id and overlap skips.
func refSeriesJoinPages(j SeriesJoiner, pa, pb *SeriesPage, emit func(int, int)) (int64, float64) {
	var comps int64
	w := 0
	if len(pa.Windows) > 0 {
		w = len(pa.Windows[0])
	}
	epsSq := j.Eps * j.Eps
	for i, wa := range pa.Windows {
		for k, wb := range pb.Windows {
			if j.Self {
				if pa.IDs[i] >= pb.IDs[k] {
					continue
				}
				if j.ExcludeOverlap > 0 {
					d := pa.Starts[i] - pb.Starts[k]
					if d < 0 {
						d = -d
					}
					if d < j.ExcludeOverlap {
						continue
					}
				}
			}
			comps++
			var s float64
			for x := range wa {
				d := wa[x] - wb[x]
				s += d * d
				if s > epsSq {
					break
				}
			}
			if s <= epsSq {
				emit(pa.IDs[i], pb.IDs[k])
			}
		}
	}
	perPair := compareBaseCost + comparePerDimCost*float64(w)
	return comps, float64(comps) * perPair
}

// randomRows draws n rows of dimension dim. Half the draws sit on a coarse
// grid so that many distances land exactly on the threshold, where an
// inexact kernel would first diverge from the reference.
func randomRows(rng *rand.Rand, n, dim int, grid bool) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		r := make([]float64, dim)
		for d := range r {
			if grid {
				r[d] = float64(rng.Intn(5)) * 0.25
			} else {
				r[d] = rng.Float64()
			}
		}
		rows[i] = r
	}
	return rows
}

// randomIDs draws n distinct ids from [0, 4n+1), in random order, so two
// pages of one self join interleave their ids.
func randomIDs(rng *rand.Rand, n int) []int {
	return rng.Perm(4*n + 1)[:n]
}

type pageRun struct {
	pairs [][2]int
	comps int64
	cpu   uint64
}

func recordRun(f func(emit func(int, int)) (int64, float64)) pageRun {
	var r pageRun
	comps, cpu := f(func(a, b int) { r.pairs = append(r.pairs, [2]int{a, b}) })
	r.comps, r.cpu = comps, math.Float64bits(cpu)
	return r
}

// TestJoinPagesMatchesReference is the joiner-level kernel contract: for
// random page pairs under L1, L2, L∞ and a PowInt norm, self and non-self,
// series with and without overlap exclusion, and empty pages, production
// JoinPages emits the same pair sequence, comparison count and modeled CPU
// seconds (by Float64bits) as the reference loop.
func TestJoinPagesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	norms := []geom.Norm{geom.L1, geom.L2, geom.LInf, {P: 3}}
	dims := []int{1, 2, 3, 5, 8, 17}
	sizes := []int{0, 1, 3, 7, 12}
	iters := 400
	if testing.Short() {
		iters = 100
	}
	var matched int
	check := func(what string, got, want pageRun) {
		t.Helper()
		if got.comps != want.comps || got.cpu != want.cpu || !reflect.DeepEqual(got.pairs, want.pairs) {
			t.Fatalf("%s:\n kernel:    comps %d cpu %#x pairs %v\n reference: comps %d cpu %#x pairs %v",
				what, got.comps, got.cpu, got.pairs, want.comps, want.cpu, want.pairs)
		}
		matched += len(want.pairs)
	}
	for it := 0; it < iters; it++ {
		dim := dims[rng.Intn(len(dims))]
		nA, nB := sizes[rng.Intn(len(sizes))], sizes[rng.Intn(len(sizes))]
		grid := rng.Intn(2) == 0
		rowsA, rowsB := randomRows(rng, nA, dim, grid), randomRows(rng, nB, dim, grid)
		idsA, idsB := randomIDs(rng, nA), randomIDs(rng, nB)
		eps := 0.25 * float64(1+rng.Intn(4)) * math.Sqrt(float64(dim))
		self := rng.Intn(2) == 0

		for _, n := range norms {
			pa, pb := &VectorPage{IDs: idsA}, &VectorPage{IDs: idsB}
			for _, r := range rowsA {
				pa.Vecs = append(pa.Vecs, r)
			}
			for _, r := range rowsB {
				pb.Vecs = append(pb.Vecs, r)
			}
			j := VectorJoiner{Norm: n, Eps: eps, Self: self}
			got := recordRun(func(emit func(int, int)) (int64, float64) { return j.JoinPages(pa, pb, emit) })
			want := recordRun(func(emit func(int, int)) (int64, float64) { return refVectorJoinPages(j, pa, pb, emit) })
			check("vector "+n.String(), got, want)
		}

		startsA, startsB := randomIDs(rng, nA), randomIDs(rng, nB)
		sa := &SeriesPage{IDs: idsA, Starts: startsA, Windows: rowsA}
		sb := &SeriesPage{IDs: idsB, Starts: startsB, Windows: rowsB}
		for _, overlap := range []int{0, 3} {
			j := SeriesJoiner{Eps: eps, Self: self, ExcludeOverlap: overlap}
			got := recordRun(func(emit func(int, int)) (int64, float64) { return j.JoinPages(sa, sb, emit) })
			want := recordRun(func(emit func(int, int)) (int64, float64) { return refSeriesJoinPages(j, sa, sb, emit) })
			check("series", got, want)
		}
	}
	if matched == 0 {
		t.Fatal("no reference matches; the comparison is vacuous")
	}
}
