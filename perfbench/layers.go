package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// layerUnits lists every per-layer metric a traced run reports, with its
// unit. A metric that does not apply to a workload reads 0 there; README.md
// says where each applies and which end-to-end metric it should move.
var layerUnits = map[string]string{
	"index.build_s":             "s",
	"index.alloc_mb":            "MB",
	"store.attach_s":            "s",
	"store.bytes_per_user_byte": "ratio",
	"store.reads":               "count",
	"store.read_s":              "s",
	"store.read_us_mean":        "us",
	"predmat.build_s":           "s",
	"predmat.marked":            "count",
	"predmat.density":           "ratio",
	"cluster.wall_s":            "s",
	"cluster.count":             "count",
	"sched.reuse_ratio":         "ratio",
	"join.wall_s":               "s",
	"join.comparisons":          "count",
	"join.results":              "count",
	"join.yield":                "ratio",
	"join.comparisons_per_s":    "1/s",
	"join.queue_high_water":     "count",
	"kernel.batch_cells":        "count",
	"kernel.batch_build_s":      "s",
	"buffer.hit_ratio":          "ratio",
	"buffer.misses":             "count",
	"buffer.evictions":          "count",
	"buffer.prefetched_pages":   "count",
	"buffer.shared_hits":        "count",
	"disk.page_reads":           "count",
	"disk.seeks":                "count",
	"shard.count":               "count",
	"shard.skew":                "ratio",
	"serve.plan_hit_ratio":      "ratio",
	"serve.queue_high_water":    "count",
	"serve.frames_high_water":   "count",
	"serve.rejected":            "count",
	"joinsvc.overhead_s_p50":    "s",
	"go.alloc_mb_per_op":        "MB",
	"go.gc_cycles_per_op":       "count",
	"go.cpu_s_per_op":           "s",
	"metrics.overhead_ratio":    "ratio",
	"metrics.events_dropped":    "count",
	"metrics.phase_gap_s":       "s",
	"metrics.phase_other_s":     "s",
}

// fillLayers sets every per-layer metric the run did not measure to 0, so a
// traced run always reports the full list.
func (r *report) fillLayers() {
	for name, unit := range layerUnits {
		if _, ok := r.layers[name]; !ok {
			r.layers[name] = metric{0, unit}
		}
	}
}

// span is one timed public call the benchmark made (or, for the program's
// phases, one phase wall laid out inside its call's span).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"` // 0 for a root span
	Req    int64   `json:"req"`    // request id shared by a call's spans
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the run started
	End    float64 `json:"end_s"`
}

// tracer keeps every span in memory until the run ends. A nil tracer (the
// untraced run) records nothing.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// record stores one span under id (a fresh id when id is 0) and returns
// the id; a nil tracer records nothing and returns 0.
func (t *tracer) record(id int64, name string, parent, req int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.next++
		id = t.next
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return id
}

// newReq returns a fresh id, used both as a request id and as the id of
// the request's root span.
func (t *tracer) newReq() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// phaseWall is one of the program's own phase walls.
type phaseWall struct {
	name string
	wall time.Duration
}

// phaseSpans lays the program's phase walls out as children of the call
// span parent, in pipeline order from the call's start. Their durations are
// the program's own phase walls; their placement inside the call is nominal.
func (t *tracer) phaseSpans(parent, req int64, start time.Time, walls []phaseWall) {
	at := start
	for _, w := range walls {
		t.record(0, w.name, parent, req, at, at.Add(w.wall))
		at = at.Add(w.wall)
	}
}

// selfTimes returns, per span name, the mean self time — duration minus the
// time its children cover — of the spans that started at or after from (the
// measured window).
func (t *tracer) selfTimes(from time.Time) map[string]float64 {
	out := make(map[string]float64)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int64]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	since := from.Sub(t.t0).Seconds()
	count := make(map[string]int)
	for _, s := range t.spans {
		if s.Start < since {
			continue
		}
		out[s.Name] += max(s.End-s.Start-child[s.ID], 0)
		count[s.Name]++
	}
	for _, name := range sortedKeys(count) {
		out[name] /= float64(count[name])
	}
	return out
}

// traceFile is what a traced run writes for compare.
type traceFile struct {
	Provenance provenance         `json:"provenance"`
	Layers     map[string]metric  `json:"per_layer"`
	SelfTime   map[string]float64 `json:"self_time_s"`
	Exact      map[string]int64   `json:"exact_counts"`
	SpansFile  string             `json:"spans_file"`
}

// writeTrace writes the traced run's per-layer summary and its spans.
func writeTrace(rc runConfig, prov provenance, rep *report) error {
	base := fmt.Sprintf("%s-seed%d", rc.workload, rc.seed)
	spansPath := filepath.Join(rc.out, "spans-"+base+".json")
	rep.spans.mu.Lock()
	buf, err := json.Marshal(rep.spans.spans)
	rep.spans.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(spansPath, buf, 0o644); err != nil {
		return err
	}
	tf := traceFile{Provenance: prov, Layers: rep.layers, SelfTime: rep.selfTime, Exact: rep.exact, SpansFile: spansPath}
	buf, err = json.MarshalIndent(tf, "", "  ")
	if err != nil {
		return err
	}
	tracePath := filepath.Join(rc.out, "trace-"+base+".json")
	if err := os.WriteFile(tracePath, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("# trace: %s (spans: %s)\n", tracePath, spansPath)
	for _, name := range sortedKeys(rep.selfTime) {
		fmt.Printf("# self %-26s %12.6g s\n", name, rep.selfTime[name])
	}
	return nil
}
