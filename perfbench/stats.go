package main

import (
	"sort"
	"time"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is how many samples must lie beyond the reported tail.
const tailMinBeyond = 10

// tail returns the highest nearest-rank percentile of xs that still has at
// least tailMinBeyond samples beyond it, and that percentile. With too few
// samples for any such percentile it returns the maximum and 100.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= tailMinBeyond {
		return s[n-1], 100
	}
	k := n - tailMinBeyond // 1-based rank: n-k = tailMinBeyond samples lie beyond it
	return s[k-1], 100 * float64(k) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// latencies accumulates per-operation walls in seconds.
type latencies []float64

func (l *latencies) add(d time.Duration) { *l = append(*l, d.Seconds()) }

// addLatency records the median and tail of xs as name_p50 and name_tail
// and notes the tail's percentile and the sample count.
func (r *report) addLatency(name string, xs []float64) {
	v, pct := tail(xs)
	r.e2e[name+"_p50"] = metric{median(xs), "s"}
	r.e2e[name+"_tail"] = metric{v, "s"}
	r.note("%s: %d samples, p50 %.6g s, tail = p%.1f %.6g s", name, len(xs), median(xs), pct, v)
}

// layerSamples gathers per-operation samples of per-layer metrics; each
// layer metric reports the median of its samples.
type layerSamples struct {
	vals  map[string][]float64
	units map[string]string
}

func newLayerSamples() *layerSamples {
	return &layerSamples{vals: make(map[string][]float64), units: make(map[string]string)}
}

func (l *layerSamples) add(name, unit string, v float64) {
	l.vals[name] = append(l.vals[name], v)
	l.units[name] = unit
}

// into stores the medians in r.layers.
func (l *layerSamples) into(r *report) {
	for name, xs := range l.vals {
		r.layers[name] = metric{median(xs), l.units[name]}
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// service-mix set-up repetitions, before the measured window: at least
// minSetups, then more while the timed set-up calls have taken less than
// setupBudget, up to maxSetups. setup_s is their median, taken over a few
// seconds so that no short slow spell of the host decides it.
const (
	minSetups   = 7
	maxSetups   = 101
	setupBudget = 5 * time.Second
)

// moreSetups reports whether set-up repetition r should run, given the
// set-up walls so far.
func moreSetups(r int, done latencies) bool {
	var spent float64
	for _, s := range done {
		spent += s
	}
	return r < minSetups || (r < maxSetups && spent < setupBudget.Seconds())
}
