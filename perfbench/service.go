package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"pmjoin"
	"pmjoin/internal/dataset"
	"pmjoin/internal/join"
	"pmjoin/internal/joinsvc"
	"pmjoin/internal/metrics"
)

// service-mix shape: two closed-loop clients, one keep-alive connection
// each, over a loopback listener in this process.
const (
	serviceClients   = 2
	servicePageBytes = 1024
	roadA, roadB     = 16000, 12000 // base road dataset sizes
	landN, landDim   = 4000, dataset.LandsatDim
	newRoadN         = 6000 // size of each dataset the /open trickle creates
	roadVariants     = 4    // distinct contents the /open trickle cycles through
	// Each client's op sequence: an /open of a dataset the next join uses
	// every openInterval (the clients' opens interleaved), every
	// mixExplainEvery-th op an /explain, and joins otherwise. The server
	// keeps every opened dataset, so opening on a clock rather than every
	// n-th op keeps the memory a run ends with independent of throughput.
	openInterval    = 500 * time.Millisecond
	mixExplainEvery = 5
	// pollEvery is how many joins a traced client makes between
	// /debug/joins polls (the server keeps the last 64 requests).
	pollEvery = 16
	reqHeader = "X-Perfbench-Req"
)

// Service epsilons: road joins at two repeated radii, the Landsat-like pair
// at one, so plan, matrix and shared-frame caches hit.
var (
	roadEps = []float64{0.0025, 0.004}
	landEps = 0.02
)

// mixQuery is one /join or /explain body.
type mixQuery struct {
	left, right string
	opt         joinsvc.JoinOptions
}

func (q mixQuery) request() joinsvc.JoinRequest {
	return joinsvc.JoinRequest{Left: q.left, Right: q.right, Options: q.opt}
}

// mixQueries is the base join rotation; the last entry repeats the first
// with two shards, so every fourth base join is sharded. Road joins are self
// joins: the overlap of two independently drawn road networks, and with it
// a cross join's cost, swings several-fold between seeds, while a network's
// self join stays close to its size.
func mixQueries() []mixQuery {
	q := func(l, r string, eps float64, shards int) mixQuery {
		return mixQuery{left: l, right: r, opt: joinsvc.JoinOptions{Method: pmjoin.SC, Epsilon: eps, BufferPages: 16, Shards: shards}}
	}
	return []mixQuery{
		q("road-a", "road-a", roadEps[0], 0),
		q("road-b", "road-b", roadEps[1], 0),
		q("land-a", "land-b", landEps, 0),
		q("road-a", "road-a", roadEps[0], 2),
	}
}

// newRoadQuery is the self join of a dataset the /open trickle created.
func newRoadQuery(name string) mixQuery {
	return mixQuery{left: name, right: name, opt: joinsvc.JoinOptions{Method: pmjoin.SC, Epsilon: roadEps[0], BufferPages: 16}}
}

func baseOpens(seed int64) []joinsvc.OpenRequest {
	return []joinsvc.OpenRequest{
		{Name: "road-a", Kind: pmjoin.KindVector, N: roadA, Seed: seed, Dim: 2},
		{Name: "road-b", Kind: pmjoin.KindVector, N: roadB, Seed: seed + 1, Dim: 2},
		{Name: "land-a", Kind: pmjoin.KindVector, N: landN, Seed: seed + 2, Dim: landDim, PageBytes: 4096},
		{Name: "land-b", Kind: pmjoin.KindVector, N: landN, Seed: seed + 3, Dim: landDim, PageBytes: 4096},
	}
}

// variantSeed is the generator seed of the k-th /open trickle content.
func variantSeed(seed int64, k int) int64 { return seed + 100 + int64(k) }

// joinSummary is the deterministic part of a /join response.
type joinSummary struct {
	Results, PageReads, Seeks, Comparisons int64
	Clusters                               int
	TotalSeconds                           float64
}

func summarize(r joinsvc.JoinResponse) joinSummary {
	return joinSummary{r.Results, r.PageReads, r.Seeks, r.Comparisons, r.Clusters, r.TotalSeconds}
}

// planSummary is the deterministic part of a Plan, from System.Explain or
// an /explain reply.
type planSummary struct {
	MarkedEntries, Clusters             int
	ClusteredPageReads, ScheduleSavings int64
	PrefetchablePages, NLJPageReads     int64
	RowPages, ColPages, MaxClusterPages int
	PMNLJLowerBound                     int64
}

// httpClient is one closed-loop client with its own keep-alive connection.
type httpClient struct {
	hc    *http.Client
	base  string
	spans *tracer
}

func newHTTPClient(base string, spans *tracer) *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &httpClient{hc: &http.Client{Transport: tr}, base: base, spans: spans}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// do sends one request, decodes a 200 reply into out, and records a client
// span when tracing. It returns the status and the client-side wall.
func (c *httpClient) do(method, path string, body, out any) (int, time.Duration, time.Time, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return 0, 0, time.Time{}, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, 0, time.Time{}, err
	}
	id := c.spans.newReq()
	if id != 0 {
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	t0 := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, 0, t0, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	t1 := time.Now()
	c.spans.record(id, "http"+path, 0, id, t0, t1)
	if err != nil {
		return resp.StatusCode, t1.Sub(t0), t0, err
	}
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(payload, out); err != nil {
			return resp.StatusCode, t1.Sub(t0), t0, fmt.Errorf("decoding %s reply: %w", path, err)
		}
	}
	return resp.StatusCode, t1.Sub(t0), t0, nil
}

// tracedHandler records a server-side span per request, as a child of the
// client span named in the request header.
func tracedHandler(h http.Handler, spans *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64) // absent: a root span
		t0 := time.Now()
		h.ServeHTTP(w, r)
		spans.record(0, "joinsvc"+r.URL.Path, parent, parent, t0, time.Now())
	})
}

// liveService is a running joinsvc over a loopback listener.
type liveService struct {
	srv  *pmjoin.Server
	svc  *joinsvc.Service
	hs   *http.Server
	base string
	// serving runs hs.Serve; serveErr is its result, read after serving
	// closes.
	serving  *join.WorkerPool
	serveErr error
}

func startService(spans *tracer) (*liveService, error) {
	sys := pmjoin.NewSystem(pmjoin.DiskModel{PageBytes: servicePageBytes})
	srv, err := pmjoin.NewServer(sys, pmjoin.ServeOptions{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := joinsvc.New(srv)
	h := svc.Handler()
	if spans != nil {
		h = tracedHandler(h, spans)
	}
	ls := &liveService{srv: srv, svc: svc, hs: &http.Server{Handler: h}, base: "http://" + ln.Addr().String(),
		serving: join.NewWorkerPool(1)}
	ls.serving.Run(func() { ls.serveErr = ls.hs.Serve(ln) })
	return ls, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (ls *liveService) stop() error {
	err := ls.hs.Close()
	ls.serving.Close()
	if !errors.Is(ls.serveErr, http.ErrServerClosed) && err == nil {
		err = ls.serveErr
	}
	return err
}

// setupService starts the service and opens the base datasets repeatedly
// (see moreSetups), keeping the last. Timed: server start and the base
// /opens.
func setupService(rc runConfig, rep *report, layers *layerSamples) (*liveService, error) {
	var setupS latencies
	var kept *liveService
	for r := 0; moreSetups(r, setupS); r++ {
		if kept != nil {
			if err := kept.stop(); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		ls, err := startService(rep.spans)
		if err != nil {
			return nil, err
		}
		kept = ls
		c := newHTTPClient(ls.base, rep.spans)
		var opens time.Duration
		for _, o := range baseOpens(rc.seed) {
			status, wall, _, err := c.do(http.MethodPost, "/open", o, nil)
			if err != nil || status != http.StatusOK {
				c.close()
				return nil, fmt.Errorf("opening %s: status %d: %v", o.Name, status, err)
			}
			opens += wall
		}
		total := time.Since(t0)
		c.close()
		runtime.ReadMemStats(&m1)
		setupS.add(total)
		layers.add("index.build_s", "s", opens.Seconds())
		layers.add("index.alloc_mb", "MB", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	}
	rep.e2e["setup_s"] = metric{median(setupS), "s"}
	rep.note("setup_s: median of %d set-ups", len(setupS))
	return kept, nil
}

// serviceBaselines runs every query the mix can issue once, solo and at
// Parallelism 1, and checks the road joins against the grid oracle. The
// trickle contents are opened here as var-k so their joins have baselines.
func serviceBaselines(rc runConfig, c *httpClient, rep *report) (map[mixQuery]joinSummary, map[mixQuery]planSummary, error) {
	joins := make(map[mixQuery]joinSummary)
	plans := make(map[mixQuery]planSummary)
	queries := mixQueries()
	for k := 0; k < roadVariants; k++ {
		name := fmt.Sprintf("var-%d", k)
		o := joinsvc.OpenRequest{Name: name, Kind: pmjoin.KindVector, N: newRoadN, Seed: variantSeed(rc.seed, k), Dim: 2}
		if status, _, _, err := c.do(http.MethodPost, "/open", o, nil); err != nil || status != http.StatusOK {
			return nil, nil, fmt.Errorf("opening %s: status %d: %v", name, status, err)
		}
		queries = append(queries, newRoadQuery(name))
	}
	road := func(name string) ([][]float64, bool) {
		switch name {
		case "road-a":
			return dataset.ToFloats(dataset.RoadIntersections(roadA, rc.seed)), true
		case "road-b":
			return dataset.ToFloats(dataset.RoadIntersections(roadB, rc.seed+1)), true
		}
		var k int
		if _, err := fmt.Sscanf(name, "var-%d", &k); err == nil {
			return dataset.ToFloats(dataset.RoadIntersections(newRoadN, variantSeed(rc.seed, k))), true
		}
		return nil, false
	}
	for _, q := range queries {
		ref := q
		ref.opt.Parallelism = 1
		var resp joinsvc.JoinResponse
		status, _, _, err := c.do(http.MethodPost, "/join", ref.request(), &resp)
		if err != nil || status != http.StatusOK {
			return nil, nil, fmt.Errorf("baseline join %s x %s: status %d: %v", q.left, q.right, status, err)
		}
		joins[q] = summarize(resp)
		var plan pmjoin.Plan
		status, _, _, err = c.do(http.MethodPost, "/explain", ref.request(), &plan)
		if err != nil || status != http.StatusOK {
			return nil, nil, fmt.Errorf("baseline explain %s x %s: status %d: %v", q.left, q.right, status, err)
		}
		plans[q] = summarizePlan(&plan)
		if pts, ok := road(q.left); ok && q.left == q.right && q.opt.Shards == 0 {
			want := selfPairs(pts, q.opt.Epsilon)
			rep.check(want == resp.Results, "oracle: %s x %s at eps %g: service %d pairs, brute force %d",
				q.left, q.right, q.opt.Epsilon, resp.Results, want)
			rep.note("oracle: %s x %s at eps %g: %d pairs (service %d)", q.left, q.right, q.opt.Epsilon, want, resp.Results)
		}
	}
	return joins, plans, nil
}

func summarizePlan(p *pmjoin.Plan) planSummary {
	return planSummary{
		MarkedEntries: p.MarkedEntries, Clusters: p.Clusters,
		ClusteredPageReads: p.ClusteredPageReads, ScheduleSavings: p.ScheduleSavings,
		PrefetchablePages: p.PrefetchablePages, NLJPageReads: p.NLJPageReads,
		RowPages: p.RowPages, ColPages: p.ColPages, MaxClusterPages: p.MaxClusterPages,
		PMNLJLowerBound: p.PMNLJLowerBound,
	}
}

// sentJoin is a traced client's record of one /join, matched later against
// the server's /debug/joins entry for the overhead metric.
type sentJoin struct {
	q       mixQuery
	start   time.Time
	latency time.Duration
}

// clientTally is one client's outcome.
type clientTally struct {
	join, open, explain   latencies
	tracedJoin, plainJoin latencies
	overhead              latencies
	requests              int
	checked, failed       int
	failures              []string
	traced                []joinsvc.JoinResponse
	err                   error
}

// check counts one checked operation and records the failure message when
// ok is false.
func (t *clientTally) check(ok bool, format string, args ...any) {
	t.checked++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// runClient is one closed-loop client: it sends its next request only after
// the previous reply, until the deadline.
func runClient(rc runConfig, id int, c *httpClient, baseJoins map[mixQuery]joinSummary, basePlans map[mixQuery]planSummary, deadline time.Time) *clientTally {
	t := &clientTally{}
	queries := mixQueries()
	pending, pendingVariant := "", 0 // dataset the next join uses, after an /open
	var sent []sentJoin
	joins, opens := 0, 0
	nextOpen := time.Now().Add(openInterval * time.Duration(id+1) / serviceClients)
	for op := 1; time.Now().Before(deadline); op++ {
		switch {
		case !time.Now().Before(nextOpen):
			nextOpen = nextOpen.Add(openInterval)
			opens++
			name := fmt.Sprintf("new-%d-%d", id, opens)
			k := (id + opens) % roadVariants
			o := joinsvc.OpenRequest{Name: name, Kind: pmjoin.KindVector, N: newRoadN, Seed: variantSeed(rc.seed, k), Dim: 2}
			status, wall, _, err := c.do(http.MethodPost, "/open", o, nil)
			if err != nil {
				t.err = err
				return t
			}
			t.requests++
			t.check(status == http.StatusOK, "open %s: status %d", name, status)
			if status == http.StatusOK {
				t.open.add(wall)
				pending, pendingVariant = name, k
			}
		case op%mixExplainEvery == 0:
			q := queries[(id+joins)%len(queries)]
			var plan pmjoin.Plan
			status, wall, _, err := c.do(http.MethodPost, "/explain", q.request(), &plan)
			if err != nil {
				t.err = err
				return t
			}
			t.requests++
			ok := status == http.StatusOK && summarizePlan(&plan) == basePlans[q]
			t.check(ok, "explain %s x %s eps %g shards %d: status %d, plan matches baseline %v",
				q.left, q.right, q.opt.Epsilon, q.opt.Shards, status, ok)
			if ok {
				t.explain.add(wall)
			}
		default:
			var q, base mixQuery
			if pending != "" {
				q, base = newRoadQuery(pending), newRoadQuery(fmt.Sprintf("var-%d", pendingVariant))
				pending = ""
			} else {
				q = queries[(id+joins)%len(queries)]
				base = q
				joins++
			}
			traced := rc.trace && joins%2 == 0
			q.opt.Trace = traced
			var resp joinsvc.JoinResponse
			status, wall, start, err := c.do(http.MethodPost, "/join", q.request(), &resp)
			if err != nil {
				t.err = err
				return t
			}
			t.requests++
			ok := status == http.StatusOK && summarize(resp) == baseJoins[base]
			t.check(ok, "join %s x %s eps %g shards %d: status %d, report matches baseline %v",
				q.left, q.right, q.opt.Epsilon, q.opt.Shards, status, ok)
			switch {
			case !rc.trace:
				t.join.add(wall)
			case traced:
				t.tracedJoin.add(wall)
				t.traced = append(t.traced, resp)
			default:
				t.plainJoin.add(wall)
			}
			if rc.trace {
				sent = append(sent, sentJoin{q: q, start: start, latency: wall})
				if len(sent) >= pollEvery {
					if err := t.matchOverheads(c, sent); err != nil {
						t.err = err
						return t
					}
					sent = sent[:0]
				}
			}
		}
	}
	return t
}

// matchOverheads polls /debug/joins and, for each sent join with exactly one
// server entry of the same datasets and ε that started within the client's
// window, records client latency minus the server's JoinStatus.Wall.
func (t *clientTally) matchOverheads(c *httpClient, sent []sentJoin) error {
	var dj joinsvc.DebugJoins
	status, _, _, err := c.do(http.MethodGet, "/debug/joins", nil, &dj)
	if err != nil {
		return err
	}
	t.requests++
	t.check(status == http.StatusOK, "debug/joins: status %d", status)
	for _, s := range sent {
		var match *pmjoin.JoinStatus
		n := 0
		for i := range dj.Recent {
			js := &dj.Recent[i]
			end := s.start.Add(s.latency)
			if js.Left == s.q.left && js.Right == s.q.right && js.Epsilon == s.q.opt.Epsilon &&
				!js.Start.Before(s.start.Round(0)) && !js.Start.After(end.Round(0)) {
				match = js
				n++
			}
		}
		if n == 1 {
			t.overhead.add(s.latency - match.Wall)
		}
	}
	return nil
}

func runService(rc runConfig, rep *report) error {
	layers := newLayerSamples()
	ls, err := setupService(rc, rep, layers)
	if err != nil {
		return err
	}
	defer func() {
		if err := ls.stop(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: stopping service: %v\n", err)
		}
	}()
	setupClient := newHTTPClient(ls.base, nil)
	baseJoins, basePlans, err := serviceBaselines(rc, setupClient, rep)
	setupClient.close()
	if err != nil {
		return err
	}

	stats0, folded0 := ls.srv.Stats(), ls.srv.Metrics()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := processCPU()
	resetPeakRSS()
	clients := make([]*httpClient, serviceClients)
	tallies := make([]*clientTally, serviceClients)
	// One pool worker per client, so every client runs at once; Close
	// returns after all of them have.
	pool := join.NewWorkerPool(serviceClients)
	start := time.Now()
	deadline := start.Add(rc.seconds)
	for i := range clients {
		clients[i] = newHTTPClient(ls.base, rep.spans)
		pool.Run(func() { tallies[i] = runClient(rc, i, clients[i], baseJoins, basePlans, deadline) })
	}
	pool.Close()
	elapsed := time.Since(start)
	peakMB := peakRSSMB()
	cpu := processCPU() - cpu0
	runtime.ReadMemStats(&m1)
	for _, c := range clients {
		c.close()
	}

	var all clientTally
	for i, t := range tallies {
		if t.err != nil {
			return fmt.Errorf("client %d: %w", i, t.err)
		}
		rep.attempted += t.checked
		rep.failed += t.failed
		rep.failures = append(rep.failures, t.failures...)
		all.join = append(all.join, t.join...)
		all.open = append(all.open, t.open...)
		all.explain = append(all.explain, t.explain...)
		all.tracedJoin = append(all.tracedJoin, t.tracedJoin...)
		all.plainJoin = append(all.plainJoin, t.plainJoin...)
		all.overhead = append(all.overhead, t.overhead...)
		all.traced = append(all.traced, t.traced...)
		all.requests += t.requests
	}
	stats1 := ls.srv.Stats()
	rep.check(stats1.Rejected == stats0.Rejected && stats1.DeadlineExpired == stats0.DeadlineExpired,
		"server rejected %d requests", stats1.Rejected+stats1.DeadlineExpired-stats0.Rejected-stats0.DeadlineExpired)

	if !rc.trace {
		rep.addLatency("join_s", all.join)
		rep.e2e["open_s_p50"] = metric{median(all.open), "s"}
		rep.e2e["explain_s_p50"] = metric{median(all.explain), "s"}
		rep.e2e["req_per_s"] = metric{float64(all.requests) / elapsed.Seconds(), "1/s"}
		rep.e2e["peak_rss_mb"] = metric{peakMB, "MB"}
		rep.note("requests %d over %.3g s: %d joins, %d opens, %d explains", all.requests, elapsed.Seconds(),
			len(all.join), len(all.open), len(all.explain))
		return nil
	}

	for _, r := range all.traced {
		layers.add("predmat.marked", "count", float64(r.MarkedEntries))
		layers.add("predmat.density", "ratio", r.MatrixDensity)
		layers.add("cluster.count", "count", float64(r.Clusters))
		layers.add("join.comparisons", "count", float64(r.Comparisons))
		layers.add("join.results", "count", float64(r.Results))
		layers.add("join.yield", "ratio", ratio(float64(r.Results), float64(r.Comparisons)))
		layers.add("disk.page_reads", "count", float64(r.PageReads))
		layers.add("disk.seeks", "count", float64(r.Seeks))
		layers.add("buffer.shared_hits", "count", float64(r.SharedHits))
	}
	layers.into(rep)
	serviceLayers(rep, ls.srv, stats0, stats1, folded0, m0, m1, all.requests)
	rep.layers["joinsvc.overhead_s_p50"] = metric{median(all.overhead), "s"}
	rep.layers["metrics.overhead_ratio"] = metric{ratio(median(all.tracedJoin), median(all.plainJoin)), "ratio"}
	rep.note("traced joins %d (p50 %.6g s), untraced joins %d (p50 %.6g s), overhead samples %d",
		len(all.tracedJoin), median(all.tracedJoin), len(all.plainJoin), median(all.plainJoin), len(all.overhead))
	rep.layers["go.cpu_s_per_op"] = metric{cpu.Seconds() / float64(all.requests), "s"}
	shardProbe(rep, ls, baseJoins)
	rep.fillLayers()
	rep.selfTime = rep.spans.selfTimes(start)
	for q, b := range baseJoins {
		key := fmt.Sprintf("baseline.%s.%s.eps%g.shards%d", q.left, q.right, q.opt.Epsilon, q.opt.Shards)
		rep.exact[key+".comparisons"] = b.Comparisons
		rep.exact[key+".page_reads"] = b.PageReads
		rep.exact[key+".results"] = b.Results
	}
	return nil
}

// serviceLayers derives the per-layer metrics the server's own counters
// give over the measured window.
func serviceLayers(rep *report, srv *pmjoin.Server, s0, s1 pmjoin.ServeStats, f0 metrics.Metrics, m0, m1 runtime.MemStats, requests int) {
	f1 := srv.Metrics()
	runs := float64(f1.FoldedRuns - f0.FoldedRuns)
	perJoin := func(p metrics.Phase) float64 {
		return ratio((f1.Phases[p].Wall - f0.Phases[p].Wall).Seconds(), runs)
	}
	set := func(name string, v float64) { rep.layers[name] = metric{v, layerUnits[name]} }
	set("predmat.build_s", perJoin(metrics.PhaseMatrix))
	set("cluster.wall_s", perJoin(metrics.PhaseCluster))
	set("join.wall_s", perJoin(metrics.PhaseJoin))
	set("metrics.phase_other_s", perJoin(metrics.PhaseOther))
	cmp := rep.layers["join.comparisons"].Value
	set("join.comparisons_per_s", ratio(cmp, perJoin(metrics.PhaseJoin)))
	set("join.queue_high_water", float64(f1.QueueHighWater))
	hits, misses := f1.Buffer.Hits-f0.Buffer.Hits, f1.Buffer.Misses-f0.Buffer.Misses
	set("buffer.hit_ratio", ratio(float64(hits), float64(hits+misses)))
	set("buffer.misses", ratio(float64(misses), runs))
	set("buffer.evictions", ratio(float64(f1.Buffer.Evictions-f0.Buffer.Evictions), runs))
	set("buffer.prefetched_pages", ratio(float64(f1.Buffer.Prefetched-f0.Buffer.Prefetched), runs))
	set("metrics.events_dropped", float64(f1.EventsDropped-f0.EventsDropped))
	planHits, planMisses := s1.PlanHits-s0.PlanHits, s1.PlanMisses-s0.PlanMisses
	set("serve.plan_hit_ratio", ratio(float64(planHits), float64(planHits+planMisses)))
	set("serve.queue_high_water", float64(s1.QueueHighWater))
	set("serve.frames_high_water", float64(s1.FramesHighWater))
	set("serve.rejected", float64(s1.Rejected+s1.DeadlineExpired-s0.Rejected-s0.DeadlineExpired))
	set("go.alloc_mb_per_op", ratio(float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20), float64(requests)))
	set("go.gc_cycles_per_op", ratio(float64(m1.NumGC-m0.NumGC), float64(requests)))
}

// shardProbes is how many times shardProbe runs the sharded query.
const shardProbes = 5

// shardProbe runs the sharded base query in process through Server.Join
// with metrics on, after the measured window, to read the per-shard walls
// that the HTTP reply does not carry. shard.skew is the median over the
// probes of the slowest shard's wall over the mean shard wall.
func shardProbe(rep *report, ls *liveService, baseJoins map[mixQuery]joinSummary) {
	var q mixQuery
	for _, c := range mixQueries() {
		if c.opt.Shards > 0 {
			q = c
		}
	}
	a, b := ls.svc.Dataset(q.left), ls.svc.Dataset(q.right)
	opt := pmjoin.Options{Method: q.opt.Method, Epsilon: q.opt.Epsilon, BufferPages: q.opt.BufferPages,
		Sharding: pmjoin.ShardingOptions{Shards: q.opt.Shards}, Metrics: true}
	var skews []float64
	for i := 0; i < shardProbes; i++ {
		req := rep.spans.newReq()
		t0 := time.Now()
		res, err := ls.srv.Join(context.Background(), a, b, opt)
		rep.spans.record(req, "pmjoin.Server.Join", 0, req, t0, time.Now())
		if err != nil {
			rep.check(false, "shard probe: %v", err)
			return
		}
		got := joinSummary{res.Report.Results, res.Report.PageReads, res.Report.Seeks, res.Report.Comparisons,
			res.Report.Clusters, res.TotalSeconds()}
		rep.check(got == baseJoins[q], "shard probe: report differs from baseline")
		var maxWall, sum time.Duration
		for _, s := range res.Metrics.Shards {
			sum += s.Wall
			if s.Wall > maxWall {
				maxWall = s.Wall
			}
		}
		n := len(res.Metrics.Shards)
		rep.layers["shard.count"] = metric{float64(n), "count"}
		skews = append(skews, ratio(maxWall.Seconds(), sum.Seconds()/float64(n)))
	}
	rep.layers["shard.skew"] = metric{median(skews), "ratio"}
}
