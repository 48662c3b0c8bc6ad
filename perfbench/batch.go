package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pmjoin"
	"pmjoin/internal/dataset"
	"pmjoin/internal/metrics"
)

// Workload sizing. The Landsat pair is the repository's Figure 14 size at
// scale 0.25 (an eighth of the 275,465-vector collection per side, about
// 1.4k 4 KB pages each), which keeps B well below the data, as in the paper.
const (
	landsatPerSide = 8608
	landsatPages   = 4096
	batchBuffer    = 25

	// landsatEps is the pinned Landsat ε: CalibrateEpsilon(…, 0.005) on the
	// pair at seed referenceSeed. Recalibrating per run would cost seconds
	// per probe; TestPinnedEpsilonDensity keeps the pin honest.
	landsatEps = 0.0086647

	referenceSeed = 1
	// The measured window interleaves Explains as one of every explainEvery
	// operations and set-ups as one of every setupEvery; the rest are
	// Joins.
	explainEvery = 2
	setupEvery   = 10
	// traceCapacity keeps every trace event of one batch join.
	traceCapacity = 1 << 17
)

// landsatOpt joins the Landsat pair as a first query over data at rest:
// every Join gets its own ε (see freshEpsilon), so it builds its prediction
// matrix, and reads its pages from a file store whose page cache was
// dropped before the call.
var landsatOpt = pmjoin.Options{Method: pmjoin.SC, Epsilon: landsatEps, BufferPages: batchBuffer, Storage: pmjoin.StorageFile}

type batchInputs struct {
	names []string
	add   []func(*pmjoin.System) (*pmjoin.Dataset, error)
	// userBytes is the raw size of the data handed to Add*.
	userBytes int64
}

func landsatInputs(seed int64) batchInputs {
	parts := dataset.SplitEqual(dataset.Landsat(2*landsatPerSide, dataset.LandsatDim, seed), 2, seed+1)
	a, b := dataset.ToFloats(parts[0]), dataset.ToFloats(parts[1])
	return batchInputs{
		names: []string{"Landsat-A", "Landsat-B"},
		add: []func(*pmjoin.System) (*pmjoin.Dataset, error){
			func(s *pmjoin.System) (*pmjoin.Dataset, error) {
				return s.AddVectors("Landsat-A", a, pmjoin.VectorOptions{})
			},
			func(s *pmjoin.System) (*pmjoin.Dataset, error) {
				return s.AddVectors("Landsat-B", b, pmjoin.VectorOptions{})
			},
		},
		userBytes: int64(len(a)+len(b)) * dataset.LandsatDim * 8,
	}
}

// batchSetup is one set-up of the workload's System.
type batchSetup struct {
	sys      *pmjoin.System
	a, b     *pmjoin.Dataset
	storeDir string
}

func (s *batchSetup) release() {
	if err := s.sys.CloseStore(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: closing store: %v\n", err)
	}
	if err := os.RemoveAll(s.storeDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: removing store: %v\n", err)
	}
}

// setupBatch builds the workload's System once; r numbers its file store.
// Only the program's own calls are timed: each Add* (appended to adds) and
// UseFileStore. It returns the set-up and the sum of those walls.
func setupBatch(rc runConfig, in batchInputs, rep *report, layers *layerSamples, adds *latencies, r int) (*batchSetup, time.Duration, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	req := rep.spans.newReq()
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: landsatPages})
	var ds []*pmjoin.Dataset
	var total time.Duration
	for i, add := range in.add {
		t0 := time.Now()
		d, err := add(sys)
		t1 := time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("adding %s: %w", in.names[i], err)
		}
		rep.spans.record(0, "setup.add", 0, req, t0, t1)
		total += t1.Sub(t0)
		adds.add(t1.Sub(t0))
		ds = append(ds, d)
	}
	runtime.ReadMemStats(&m1)
	layers.add("index.build_s", "s", total.Seconds())
	layers.add("index.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	dir := filepath.Join(rc.out, fmt.Sprintf("store-%d-%d", os.Getpid(), r))
	t0 := time.Now()
	err := sys.UseFileStore(dir)
	t1 := time.Now()
	if err != nil {
		// Best effort: a store that failed to attach may be half written.
		_ = os.RemoveAll(dir)
		return nil, 0, fmt.Errorf("attaching file store: %w", err)
	}
	rep.spans.record(0, "setup.store_attach", 0, req, t0, t1)
	total += t1.Sub(t0)
	layers.add("store.attach_s", "s", t1.Sub(t0).Seconds())
	return &batchSetup{sys: sys, a: ds[0], b: ds[1], storeDir: dir}, total, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n, err
}

// freshEpsilon is the k-th distinct ε of a fresh-matrix workload: base
// advanced by k units in the last place. The distance to base is far below
// any gap between object or MBR distances, so the Report stays the
// reference's while the matrix-cache key changes.
func freshEpsilon(base float64, k int) float64 {
	e := base
	for i := 0; i < k; i++ {
		e = math.Nextafter(e, math.Inf(1))
	}
	return e
}

// phaseGapTolerance bounds how far the traced call's wall may exceed the sum
// of the program's phase walls: the gap is option validation before the
// collector starts and result assembly after it stops.
func phaseGapTolerance(wall time.Duration) time.Duration {
	return 2*time.Millisecond + wall/20
}

// runLandsat runs the landsat-cold workload.
func runLandsat(rc runConfig, rep *report) error {
	layers := newLayerSamples()
	in := landsatInputs(rc.seed)
	var setupS, addS latencies
	st, total, err := setupBatch(rc, in, rep, layers, &addS, 0)
	if err != nil {
		return err
	}
	defer st.release()
	setupS.add(total)
	size, err := dirBytes(st.storeDir)
	if err != nil {
		return err
	}
	layers.add("store.bytes_per_user_byte", "ratio", float64(size)/float64(in.userBytes))
	sys, a, b := st.sys, st.a, st.b

	// The reference: a simulator run at Parallelism 1, outside all timings.
	refOpt := landsatOpt
	refOpt.Parallelism = 1
	refOpt.Storage = pmjoin.StorageSim
	ref, err := sys.Join(a, b, refOpt)
	if err != nil {
		return fmt.Errorf("reference join: %w", err)
	}
	p, err := sys.Explain(a, b, refOpt)
	if err != nil {
		return fmt.Errorf("reference plan: %w", err)
	}
	refPlan := summarizePlan(p)
	rep.note("reference: %s; matrix %d marked (density %.4g)", ref.Report.String(), ref.MarkedEntries, ref.MatrixDensity)

	var joinS, explainS, tracedS, untracedS latencies
	var rssMB []float64 // peak resident set of each untraced Join
	k := 0
	join := func(traced bool) {
		k++
		opt := landsatOpt
		opt.Epsilon = freshEpsilon(landsatOpt.Epsilon, k)
		if traced {
			opt.Metrics, opt.Trace, opt.TraceCapacity = true, true, traceCapacity
		}
		req := rep.spans.newReq()
		// Start every Join from a collected heap, so none pays for its
		// predecessor's garbage and the GC pacer starts each call alike.
		runtime.GC()
		t0 := time.Now()
		err := sys.DropStoreCaches()
		if traced {
			rep.spans.record(0, "store.drop_caches", 0, req, t0, time.Now())
		}
		if err != nil {
			rep.check(false, "dropping store caches: %v", err)
			return
		}
		var m0, m1 runtime.MemStats
		var cpu0 time.Duration
		if traced {
			runtime.ReadMemStats(&m0)
			cpu0 = processCPU()
		}
		resetPeakRSS()
		t0 = time.Now()
		res, err := sys.Join(a, b, opt)
		t1 := time.Now()
		wall := t1.Sub(t0)
		if !rc.trace {
			rssMB = append(rssMB, peakRSSMB())
		}
		if err != nil {
			rep.check(false, "join %d: %v", k, err)
			return
		}
		rep.check(res.Report == ref.Report, "join %d: report %+v differs from reference %+v", k, &res.Report, &ref.Report)
		rep.check(res.Exec.MeasuredReads == res.Report.PageReads,
			"join %d: store reads %d != disk page reads %d", k, res.Exec.MeasuredReads, res.Report.PageReads)
		switch {
		case !rc.trace:
			joinS.add(wall)
		case !traced:
			untracedS.add(wall)
		default:
			layers.add("go.cpu_s_per_op", "s", (processCPU() - cpu0).Seconds())
			runtime.ReadMemStats(&m1)
			tracedS.add(wall)
			id := rep.spans.record(0, "pmjoin.Join", 0, req, t0, t1)
			batchLayers(rep, layers, res, wall, m0, m1, id, req, t0)
		}
	}
	explain := func() {
		req := rep.spans.newReq()
		runtime.GC() // as before a Join
		t0 := time.Now()
		plan, err := sys.Explain(a, b, landsatOpt)
		t1 := time.Now()
		rep.spans.record(0, "pmjoin.Explain", 0, req, t0, t1)
		if err != nil {
			rep.check(false, "explain: %v", err)
			return
		}
		rep.check(summarizePlan(plan) == refPlan, "explain: plan differs from reference")
		explainS.add(t1.Sub(t0))
	}

	// setup repeats the set-up on a System that is dropped afterwards, so
	// set-up samples spread over the measured window like the others.
	setups := 0
	setup := func() {
		setups++
		s, total, err := setupBatch(rc, in, rep, layers, &addS, setups)
		rep.check(err == nil, "set-up %d: %v", setups, err)
		if err != nil {
			return
		}
		s.release()
		setupS.add(total)
	}

	join(false) // warm-up: caches fill and lazy set-up finishes before timing
	joinS, rssMB = joinS[:0], rssMB[:0]
	start := time.Now()
	for op, joins := 1, 0; time.Since(start) < rc.seconds; op++ {
		switch {
		case op%setupEvery == 0:
			setup()
		case op%explainEvery == 0:
			explain()
		default:
			joins++
			join(rc.trace && joins%2 == 0)
		}
	}
	elapsed := time.Since(start)

	if !rc.trace {
		rep.addLatency("join_s", joinS)
		rep.e2e["explain_s_p50"] = metric{median(explainS), "s"}
		rep.e2e["open_s_p50"] = metric{median(addS), "s"}
		rep.e2e["setup_s"] = metric{median(setupS), "s"}
		rep.e2e["req_per_s"] = metric{float64(len(joinS)) / elapsed.Seconds(), "1/s"}
		rep.e2e["peak_rss_mb"] = metric{median(rssMB), "MB"}
		rep.note("explain_s_p50: %d samples; setup_s: %d set-ups; open_s_p50: %d Add* calls; req_per_s counts Join calls over %.3g s",
			len(explainS), len(setupS), len(addS), elapsed.Seconds())
		return nil
	}
	layers.into(rep)
	rep.layers["metrics.overhead_ratio"] = metric{ratio(median(tracedS), median(untracedS)), "ratio"}
	rep.note("traced joins %d (p50 %.6g s), untraced joins %d (p50 %.6g s)", len(tracedS), median(tracedS), len(untracedS), median(untracedS))
	rep.fillLayers()
	rep.selfTime = rep.spans.selfTimes(start)
	rep.exact = map[string]int64{
		"disk.page_reads":    ref.Report.PageReads,
		"disk.seeks":         ref.Report.Seeks,
		"join.comparisons":   ref.Report.Comparisons,
		"join.results":       ref.Report.Results,
		"cluster.count":      int64(ref.Report.Clusters),
		"predmat.marked":     int64(ref.MarkedEntries),
		"buffer.misses":      ref.Report.Misses,
		"kernel.batch_cells": int64(rep.layers["kernel.batch_cells"].Value),
	}
	return nil
}

// batchLayers records one traced Join's per-layer samples and its phase
// spans.
func batchLayers(rep *report, l *layerSamples, res *pmjoin.Result, wall time.Duration, m0, m1 runtime.MemStats, id, req int64, start time.Time) {
	m := res.Metrics
	ph := func(p metrics.Phase) time.Duration { return m.Phases[p].Wall }
	walls := []phaseWall{
		{"phase.matrix", ph(metrics.PhaseMatrix)},
		{"phase.cluster", ph(metrics.PhaseCluster)},
		{"phase.join", ph(metrics.PhaseJoin)},
		{"phase.other", ph(metrics.PhaseOther)},
	}
	rep.spans.phaseSpans(id, req, start, walls)
	var sum time.Duration
	for _, w := range walls {
		sum += w.wall
	}
	gap := wall - sum
	rep.check(gap >= -time.Millisecond && gap <= phaseGapTolerance(wall),
		"traced join: phase walls sum to %v, call took %v", sum, wall)
	l.add("metrics.phase_gap_s", "s", gap.Seconds())
	l.add("metrics.phase_other_s", "s", ph(metrics.PhaseOther).Seconds())

	l.add("predmat.build_s", "s", ph(metrics.PhaseMatrix).Seconds())
	l.add("predmat.marked", "count", float64(res.MarkedEntries))
	l.add("predmat.density", "ratio", res.MatrixDensity)
	l.add("cluster.wall_s", "s", ph(metrics.PhaseCluster).Seconds())
	l.add("cluster.count", "count", float64(res.Report.Clusters))
	var pinned, reused int64
	for _, c := range m.Clusters {
		pinned += int64(c.Pinned)
		reused += c.Reused
	}
	l.add("sched.reuse_ratio", "ratio", ratio(float64(reused), float64(pinned)))
	joinWall := ph(metrics.PhaseJoin).Seconds()
	l.add("join.wall_s", "s", joinWall)
	l.add("join.comparisons", "count", float64(res.Report.Comparisons))
	l.add("join.results", "count", float64(res.Report.Results))
	l.add("join.yield", "ratio", ratio(float64(res.Report.Results), float64(res.Report.Comparisons)))
	l.add("join.comparisons_per_s", "1/s", ratio(float64(res.Report.Comparisons), joinWall))
	l.add("join.queue_high_water", "count", float64(m.QueueHighWater))
	l.add("kernel.batch_cells", "count", float64(res.Exec.BatchCells))
	l.add("kernel.batch_build_s", "s", res.Exec.BatchBuildWall.Seconds())
	l.add("buffer.hit_ratio", "ratio", ratio(float64(m.Buffer.Hits), float64(m.Buffer.Hits+m.Buffer.Misses)))
	l.add("buffer.misses", "count", float64(m.Buffer.Misses))
	l.add("buffer.evictions", "count", float64(m.Buffer.Evictions))
	l.add("buffer.prefetched_pages", "count", float64(res.Exec.PrefetchedPages))
	l.add("buffer.shared_hits", "count", float64(m.Buffer.SharedHits))
	l.add("disk.page_reads", "count", float64(res.Report.PageReads))
	l.add("disk.seeks", "count", float64(res.Report.Seeks))
	l.add("store.reads", "count", float64(m.Measured.Reads))
	l.add("store.read_s", "s", m.Measured.Seconds)
	l.add("store.read_us_mean", "us", 1e6*ratio(m.Measured.Seconds, float64(m.Measured.Reads)))
	l.add("metrics.events_dropped", "count", float64(m.EventsDropped))
	l.add("go.alloc_mb_per_op", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	l.add("go.gc_cycles_per_op", "count", float64(m1.NumGC-m0.NumGC))
}
