package pmjoin

import (
	"reflect"
	"testing"

	"pmjoin/internal/dataset"
)

// TestBatchKernelsDeterminism pins whole-cluster block dispatch end to end:
// across parallelism {1, GOMAXPROCS}, sharding {off, 3 shards} and prefetch
// {on, off}, every clustered join collects exactly the brute-force
// reference set (see referencePairs), and runs that differ only in
// parallelism or prefetch produce a bit-identical Result and Plan. The
// vector workload uses dim 8 so the whole-cluster SIMD path (dim >= 8) is
// exercised, not the scalar fallback; the self-join, series and string
// workloads pin the per-pair fallback seams. Batched versus per-pair
// dispatch of the same run is internal/join's TestBatchMatchesPerPair.
func TestBatchKernelsDeterminism(t *testing.T) {
	type workload struct {
		name    string
		methods []Method
		full    bool // run the full sharding x prefetch cross
		build   func(t *testing.T) (*System, *Dataset, *Dataset)
		opt     Options
	}
	loads := []workload{
		{
			// Non-self L2 at dim 8: the batchable path proper.
			name:    "vector-L2-dim8",
			methods: []Method{SC, CC, RandomSC},
			full:    true,
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 512})
				da, err := sys.AddVectors("a", randomVecs(300, 8, 1), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddVectors("b", randomVecs(200, 8, 2), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 0.55, BufferPages: 16, CollectPairs: true},
		},
		{
			// L1 at dim 3: the batch path's non-L2 threshold selection and the
			// scalar (dim < 8) block kernels.
			name:    "vector-L1",
			methods: []Method{SC},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(250, 3, 3), VectorOptions{NormP: 1})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddVectors("b", randomVecs(200, 3, 4), VectorOptions{NormP: 1})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 0.15, BufferPages: 16, CollectPairs: true},
		},
		{
			// Self join: not batchable (id-based skips), so it runs per pair.
			name:    "vector-self",
			methods: []Method{SC},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 256})
				da, err := sys.AddVectors("a", randomVecs(300, 2, 5), VectorOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, da
			},
			opt: Options{Epsilon: 0.05, BufferPages: 16, CollectPairs: true},
		},
		{
			// Non-self series join: the SeriesJoiner batch seam.
			name:    "series",
			methods: []Method{SC, CC},
			build: func(t *testing.T) (*System, *Dataset, *Dataset) {
				sys := NewSystem(DiskModel{PageBytes: 1024})
				da, err := sys.AddSeries("wa", dataset.RandomWalk(2000, 20), SeriesOptions{Window: 32, Stride: 4})
				if err != nil {
					t.Fatal(err)
				}
				db, err := sys.AddSeries("wb", dataset.RandomWalk(1500, 21), SeriesOptions{Window: 32, Stride: 4})
				if err != nil {
					t.Fatal(err)
				}
				return sys, da, db
			},
			opt: Options{Epsilon: 8.0, BufferPages: 16, CollectPairs: true},
		},
		{
			// Strings have no float kernel, so they run per pair.
			name:    "string",
			methods: []Method{SC},
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

	type config struct {
		par      int
		shards   int
		prefetch PrefetchMode
	}
	small := []config{
		{par: 1, prefetch: PrefetchDefault},
		{par: 0, prefetch: PrefetchDefault},
	}
	fullCross := []config{
		{par: 1, shards: 0, prefetch: PrefetchOn},
		{par: 1, shards: 0, prefetch: PrefetchOff},
		{par: 1, shards: 3, prefetch: PrefetchOn},
		{par: 0, shards: 0, prefetch: PrefetchOn},
		{par: 0, shards: 0, prefetch: PrefetchOff},
		{par: 0, shards: 3, prefetch: PrefetchOn},
		{par: 0, shards: 3, prefetch: PrefetchOff},
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
					configs := small
					if w.full {
						configs = fullCross
					}
					// Sharding changes the Report (each shard reads over a
					// cold session), so each shard count has its own baseline.
					type baseline struct {
						res  Result
						plan *Plan
					}
					base := map[int]baseline{}
					for _, c := range configs {
						opt := w.opt
						opt.Method = m
						opt.Parallelism = c.par
						opt.Sharding = ShardingOptions{Shards: c.shards}
						opt.Pipeline.Prefetch = c.prefetch
						res, err := sys.Join(a, b, opt)
						if err != nil {
							t.Fatal(err)
						}
						plan, err := sys.Explain(a, b, opt)
						if err != nil {
							t.Fatal(err)
						}
						checkPairs(t, res, want)
						bl, ok := base[c.shards]
						if !ok {
							base[c.shards] = baseline{deterministicFields(res), plan}
							continue
						}
						if got := deterministicFields(res); !reflect.DeepEqual(got, bl.res) {
							t.Errorf("par %d shards %d prefetch %v: result differs:\n base: %+v\n got:  %+v",
								c.par, c.shards, c.prefetch, bl.res, got)
						}
						if !reflect.DeepEqual(plan, bl.plan) {
							t.Errorf("par %d shards %d prefetch %v: plan differs:\n base: %+v\n got:  %+v",
								c.par, c.shards, c.prefetch, bl.plan, plan)
						}
					}
				})
			}
		})
	}
}

// TestBatchDispatchRan guards the batch tests against vacuity: with metrics
// on, a batchable clustered run must report that the block path actually
// evaluated clusters, and a self join — not batchable, since its id-based
// skips need both pages' IDs — must report that it did not.
func TestBatchDispatchRan(t *testing.T) {
	sys := NewSystem(DiskModel{PageBytes: 512})
	da, err := sys.AddVectors("a", randomVecs(300, 8, 1), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db, err := sys.AddVectors("b", randomVecs(200, 8, 2), VectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt := Options{Method: SC, Epsilon: 0.55, BufferPages: 16, Metrics: true}
	batched, err := sys.Join(da, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	if batched.Exec.BatchClusters == 0 || batched.Exec.BatchCells == 0 || batched.Exec.BatchRows == 0 {
		t.Errorf("batchable run reported no batch dispatch: %+v", batched.Exec)
	}
	if batched.Exec.BatchClusters > batched.Report.Clusters {
		t.Errorf("batched %d of %d clusters", batched.Exec.BatchClusters, batched.Report.Clusters)
	}
	self, err := sys.Join(da, da, opt)
	if err != nil {
		t.Fatal(err)
	}
	if self.Exec.BatchClusters != 0 || self.Exec.BatchCells != 0 {
		t.Errorf("self join reported batch dispatch: %+v", self.Exec)
	}
}
