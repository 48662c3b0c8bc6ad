package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"

	"pmjoin"
)

// TestPinnedEpsilonDensity checks the pinned Landsat ε against the 0.5%
// target density it was calibrated for, with one Explain at the reference
// seed instead of a full recalibration.
func TestPinnedEpsilonDensity(t *testing.T) {
	in := landsatInputs(referenceSeed)
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: landsatPages})
	a, err := in.add[0](sys)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.add[1](sys)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sys.Explain(a, b, landsatOpt)
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.005
	if math.Abs(plan.MatrixDensity-target) > 0.1*target {
		t.Fatalf("density at pinned eps %g is %.5f, want %.4f ± 10%%", landsatEps, plan.MatrixDensity, target)
	}
}

func TestGridPairsMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := func(n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			out[i] = []float64{rng.Float64(), rng.Float64()}
		}
		return out
	}
	a, b := pts(400), pts(300)
	for _, eps := range []float64{0.01, 0.05, 0.2} {
		var want int64
		for _, p := range a {
			for _, q := range b {
				if math.Hypot(p[0]-q[0], p[1]-q[1]) <= eps {
					want++
				}
			}
		}
		if got := gridPairs(a, b, eps); got != want {
			t.Errorf("eps %g: grid counts %d pairs, nested loop %d", eps, got, want)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, pct := tail(xs); v != 90 || pct != 90 {
		t.Errorf("tail of 1..100 = %g at p%g, want 90 at p90", v, pct)
	}
	if v, pct := tail(xs[:8]); v != 8 || pct != 100 {
		t.Errorf("tail of 8 samples = %g at p%g, want the maximum", v, pct)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestFreshEpsilonIsDistinct(t *testing.T) {
	seen := map[float64]bool{}
	for k := 0; k < 50; k++ {
		e := freshEpsilon(landsatEps, k)
		if seen[e] || e < landsatEps || e-landsatEps > 1e-12 {
			t.Fatalf("freshEpsilon(%d) = %v", k, e)
		}
		seen[e] = true
	}
}

func TestSelfPairs(t *testing.T) {
	pts := [][]float64{{0, 0}, {0.05, 0}, {0.5, 0.5}, {0.52, 0.5}, {0.9, 0.1}}
	if got := selfPairs(pts, 0.06); got != 2 {
		t.Errorf("selfPairs = %d, want 2", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's metric lists equal to
// the metrics the runs report.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var b struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind  string
		list  []named
		units map[string]string
	}{{"end_to_end", b.EndToEnd, endToEndUnits}, {"per_layer", b.PerLayer, layerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("%s lists %d metrics, the code reports %d", c.kind, len(c.list), len(c.units))
		}
		for _, m := range c.list {
			if u, ok := c.units[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s) is not reported in that unit", c.kind, m.Name, m.Unit)
			}
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
}
