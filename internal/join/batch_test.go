package join

import (
	"math/rand"
	"reflect"
	"testing"

	"pmjoin/internal/cluster"
	"pmjoin/internal/disk"
	"pmjoin/internal/geom"
	"pmjoin/internal/metrics"
	"pmjoin/internal/predmat"
	"pmjoin/internal/rstar"
)

// perPairJoiner hides a joiner's BatchJoiner methods, so the clustered
// executor runs a JoinPair per marked entry: the reference partner of the
// whole-cluster block dispatch.
type perPairJoiner struct{ ObjectJoiner }

// buildBatchDataset packs n random dim-d points into an R*-tree dataset on d,
// stored as vector pages or, with series set, as series pages whose windows
// are the points.
func buildBatchDataset(t *testing.T, d *disk.Disk, rng *rand.Rand, n, dim int, series bool) *Dataset {
	t.Helper()
	items := make([]rstar.Item, n)
	for i := range items {
		v := make(geom.Vector, dim)
		for k := range v {
			v[k] = rng.Float64()
		}
		items[i] = rstar.PointItem(i, v)
	}
	tr, err := rstar.BulkLoadSTR(dim, rstar.DefaultConfig(8), items)
	if err != nil {
		t.Fatal(err)
	}
	pages := tr.Pack()
	f := d.CreateFile()
	for _, pg := range pages {
		var payload any
		if series {
			sp := &SeriesPage{}
			for _, it := range pg {
				sp.IDs = append(sp.IDs, it.ID)
				sp.Starts = append(sp.Starts, it.ID)
				sp.Windows = append(sp.Windows, it.MBR.Min)
			}
			payload = sp
		} else {
			vp := &VectorPage{}
			for _, it := range pg {
				vp.IDs = append(vp.IDs, it.ID)
				vp.Vecs = append(vp.Vecs, it.MBR.Min)
			}
			payload = vp
		}
		if _, err := d.AppendPage(f, payload); err != nil {
			t.Fatal(err)
		}
	}
	return &Dataset{File: f, Root: tr.Root(), Pages: len(pages)}
}

// TestBatchMatchesPerPair is the engine-level batch contract: a clustered
// run whose joiner batches (whole-cluster block dispatch) produces a Report
// and a pair sequence identical to the same joiner with BatchJoiner hidden
// (a JoinPair per marked entry), inline and at 2 and 4 workers, with the
// prefetch pipeline on and off. The dim-8 vector case exercises the SIMD
// block kernels, the dim-3 L1 case the scalar ones and the non-L2 threshold,
// and the series case the SeriesJoiner batch seam.
func TestBatchMatchesPerPair(t *testing.T) {
	cases := []struct {
		name   string
		dim    int
		norm   geom.Norm
		eps    float64
		series bool
	}{
		{"vector-L2-dim8", 8, geom.L2, 0.55, false},
		{"vector-L1-dim3", 3, geom.L1, 0.15, false},
		{"series-dim8", 8, geom.L2, 0.55, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.dim)))
			d := disk.New(disk.DefaultModel())
			r := buildBatchDataset(t, d, rng, 300, tc.dim, tc.series)
			s := buildBatchDataset(t, d, rng, 200, tc.dim, tc.series)
			m, err := predmat.Build(r.Root, s.Root, r.Pages, s.Pages, tc.eps,
				predmat.NormPredictor{Norm: tc.norm}, predmat.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			const buffer = 12
			clusters, err := cluster.Square(m, buffer)
			if err != nil {
				t.Fatal(err)
			}
			var batch ObjectJoiner = VectorJoiner{Norm: tc.norm, Eps: tc.eps}
			if tc.series {
				batch = SeriesJoiner{Eps: tc.eps}
			}
			if _, ok := batch.(BatchJoiner).BatchKernel(); !ok {
				t.Fatal("joiner is not batchable")
			}

			run := func(j ObjectJoiner, workers int, prefetch bool) (*Report, [][2]int, *metrics.Metrics) {
				var pairs [][2]int
				mc := metrics.New(metrics.Config{})
				e := &Engine{
					Disk: d, BufferSize: buffer, Prefetch: prefetch, Metrics: mc,
					OnPair: func(a, b int) { pairs = append(pairs, [2]int{a, b}) },
				}
				if workers > 0 {
					e.Workers = NewWorkerPool(workers)
					defer e.Workers.Close()
				}
				rep, err := e.Clustered(r, s, m, clusters, j, ClusteredOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return rep, pairs, mc.Finish()
			}
			for _, workers := range []int{0, 2, 4} {
				for _, prefetch := range []bool{false, true} {
					wantRep, wantPairs, _ := run(perPairJoiner{batch}, workers, prefetch)
					gotRep, gotPairs, snap := run(batch, workers, prefetch)
					if !reflect.DeepEqual(gotRep, wantRep) {
						t.Errorf("workers %d prefetch %v: report differs:\n per-pair: %+v\n batched:  %+v",
							workers, prefetch, wantRep, gotRep)
					}
					if !reflect.DeepEqual(gotPairs, wantPairs) {
						t.Errorf("workers %d prefetch %v: pair sequence differs (%d vs %d pairs)",
							workers, prefetch, len(gotPairs), len(wantPairs))
					}
					if len(wantPairs) == 0 {
						t.Fatal("workload has no results; the comparison is vacuous")
					}
					batched := 0
					for _, cs := range snap.Clusters {
						batched += cs.BatchCells
					}
					if batched == 0 {
						t.Fatal("batchable joiner ran no block dispatch; the comparison is vacuous")
					}
				}
			}
		})
	}
}
