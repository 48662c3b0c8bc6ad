package pmjoin

import (
	"reflect"
	"testing"

	"pmjoin/internal/dataset"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/join"
	"pmjoin/internal/seqdist"
)

// TestKernelsDeterminism pins the kernel comparison path end to end: for
// every data kind and method, the pairs a join collects are exactly the
// brute-force reference set (see referencePairs), which no kernel, index or
// matrix computes. The matrix build, the BFRJ node test, the EGO adapters
// and the joiners all run their kernel tests here; the joiner-level
// bit-for-bit contract (pairs, comparisons, modeled CPU) is
// internal/join's TestJoinPagesMatchesReference.
func TestKernelsDeterminism(t *testing.T) {
	type workload struct {
		name    string
		methods []Method
		build   func(t *testing.T) (*System, *Dataset, *Dataset)
		opt     Options
	}
	loads := []workload{
		{
			name:    "vector-L2",
			methods: vectorMethods,
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(300, 2, 1), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddVectors("b", randomVecs(200, 2, 2), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 0.05, BufferPages: 16, CollectPairs: true},
		},
		{
			// The remaining norms exercise the L1, L∞ and PowInt-band kernel
			// paths; the cheaper method subset keeps the matrix, index and
			// grid pipelines covered without rejoining everything.
			name:    "vector-L1",
			methods: []Method{PMNLJ, EGO, BFRJ},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(250, 3, 3), VectorOptions{NormP: 1})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, da
			},
			opt: Options{Epsilon: 0.08, BufferPages: 16, CollectPairs: true},
		},
		{
			name:    "vector-Linf",
			methods: []Method{PMNLJ, EGO, BFRJ},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(250, 3, 4), VectorOptions{NormP: -1})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, da
			},
			opt: Options{Epsilon: 0.05, BufferPages: 16, CollectPairs: true},
		},
		{
			name:    "vector-L3",
			methods: []Method{PMNLJ, EGO, BFRJ},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(250, 3, 5), VectorOptions{NormP: 3})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, da
			},
			opt: Options{Epsilon: 0.06, BufferPages: 16, CollectPairs: true},
		},
		{
			name:    "series",
			methods: allMethods,
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 1024})
				ds, err := sys.AddSeries("walk", dataset.RandomWalk(2500, 20), SeriesOptions{Window: 32, Stride: 4})
				if err != nil {
					t.Fatal(err)
				}
				return sys, ds, ds
			},
			opt: Options{Epsilon: 8.0, BufferPages: 16, CollectPairs: true},
		},
		{
			// Strings have no float kernel; they pin the fallback seams
			// (engine load hook, matrix build, BFRJ predicate).
			name:    "string",
			methods: []Method{PMNLJ, SC, BFRJ},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 512})
				sa := dataset.DNA(2000, 10)
				sb := dataset.DNA(1500, 11)
				dataset.PlantHomologies(sb, sa, 5, 80, 0.02, 12)
				da, err := sys.AddString("a", sa, StringOptions{Window: 64, Stride: 8})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddString("b", sb, StringOptions{Window: 64, Stride: 8})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 4, BufferPages: 16, CollectPairs: true},
		},
	}

	for _, w := range loads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			sys, a, b := w.build(t)
			want := referencePairs(t, a, b, w.opt.Epsilon)
			if len(want) == 0 {
				t.Fatal("workload has no results; the comparison is vacuous")
			}
			for _, m := range w.methods {
				m := m
				t.Run(m.String(), func(t *testing.T) {
					opt := w.opt
					opt.Method = m
					res, err := sys.Join(a, b, opt)
					if err != nil {
						t.Fatal(err)
					}
					checkPairs(t, res, want)
				})
			}
		})
	}
}

// checkPairs asserts that a join collected exactly the oracle's pair set:
// no truncation, a result count equal to the set size, and the same pairs
// once sorted (so a duplicate emission fails too).
func checkPairs(t *testing.T, res *Result, want [][2]int) {
	t.Helper()
	if res.Truncated {
		t.Fatalf("pairs truncated at %d; raise MaxPairs", len(res.Pairs))
	}
	if res.Report.Results != int64(len(want)) {
		t.Errorf("Results = %d, oracle has %d pairs", res.Report.Results, len(want))
	}
	got := append([][2]int(nil), res.Pairs...)
	sortPairs(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pair set differs from the oracle (%d vs %d pairs)", len(got), len(want))
	}
}

// referencePairs is a brute-force oracle: every object pair of a × b that
// the reference predicate accepts, sorted, with the objects read straight
// off the datasets' disk pages — no index, prediction matrix, buffer pool or
// kernel takes part. A self join (a == b) keeps idA < idB, and sequence self
// joins skip window pairs whose starts are closer than the window length.
// The predicates: vector L2 and series compare the squared L2 distance with
// eps², other vector norms compare Dist with eps, and strings compare the
// full (unbanded) edit distance with int(eps).
func referencePairs(t *testing.T, a, b *Dataset, eps float64) [][2]int {
	t.Helper()
	type object struct {
		id, start int
		vec       []float64
		str       []byte
	}
	objects := func(d *Dataset) []object {
		var out []object
		for p := 0; p < d.ds.Pages; p++ {
			pg, err := d.sys.d.Peek(disk.PageAddr{File: d.ds.File, Page: p})
			if err != nil {
				t.Fatal(err)
			}
			switch pl := pg.Payload.(type) {
			case *join.VectorPage:
				for i, v := range pl.Vecs {
					out = append(out, object{id: pl.IDs[i], vec: v})
				}
			case *join.SeriesPage:
				for i, w := range pl.Windows {
					out = append(out, object{id: pl.IDs[i], start: pl.Starts[i], vec: w})
				}
			case *join.StringPage:
				for i, w := range pl.Windows {
					out = append(out, object{id: pl.IDs[i], start: pl.Starts[i], str: w})
				}
			default:
				t.Fatalf("unexpected page payload %T", pl)
			}
		}
		return out
	}
	match := func(x, y object) bool {
		switch {
		case a.kind == KindString:
			return seqdist.EditDistance(x.str, y.str) <= int(eps)
		case a.kind == KindVector && a.norm != geom.L2:
			return a.norm.Dist(x.vec, y.vec) <= eps
		default:
			var s float64
			for d := range x.vec {
				diff := x.vec[d] - y.vec[d]
				s += diff * diff
			}
			return s <= eps*eps
		}
	}
	self := a == b
	left, right := objects(a), objects(b)
	var pairs [][2]int
	for _, x := range left {
		for _, y := range right {
			if self {
				if x.id >= y.id {
					continue
				}
				if a.kind != KindVector {
					if d := x.start - y.start; d < a.window && -d < a.window {
						continue
					}
				}
			}
			if match(x, y) {
				pairs = append(pairs, [2]int{x.id, y.id})
			}
		}
	}
	sortPairs(pairs)
	return pairs
}
