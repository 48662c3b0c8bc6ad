package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// compareMain implements `perfbench compare old.json new.json` over two
// traced-run files: it prints per-layer self-time and per-layer metric
// deltas, and flags every exact count that changed. It exits 1 when an
// exact count changed, 2 on a usage or read error.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare old-trace.json new-trace.json")
		return 2
	}
	var old, cur traceFile
	for i, p := range []*traceFile{&old, &cur} {
		buf, err := os.ReadFile(args[i])
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		if err := json.Unmarshal(buf, p); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", args[i], err)
			return 2
		}
	}
	fmt.Printf("old: %s", old.Provenance.header())
	fmt.Printf("new: %s", cur.Provenance.header())
	if old.Provenance.Workload != cur.Provenance.Workload || old.Provenance.Seed != cur.Provenance.Seed {
		fmt.Println("# note: different workload or seed; exact counts are expected to differ")
	}

	fmt.Printf("\n%-30s %14s %14s %14s %9s\n", "mean self time (s)", "old", "new", "delta", "delta%")
	for _, name := range unionKeys(old.SelfTime, cur.SelfTime) {
		o, n := old.SelfTime[name], cur.SelfTime[name]
		fmt.Printf("%-30s %14.6g %14.6g %14.6g %9s\n", name, o, n, n-o, pct(o, n))
	}

	fmt.Printf("\n%-30s %14s %14s %14s %9s\n", "per-layer metric", "old", "new", "delta", "delta%")
	for _, name := range unionKeys(old.Layers, cur.Layers) {
		o, n := old.Layers[name].Value, cur.Layers[name].Value
		fmt.Printf("%-30s %14.6g %14.6g %14.6g %9s\n", name, o, n, n-o, pct(o, n))
	}

	changed := 0
	fmt.Printf("\n%-50s %14s %14s\n", "exact count", "old", "new")
	for _, name := range unionKeys(old.Exact, cur.Exact) {
		o, okO := old.Exact[name]
		n, okN := cur.Exact[name]
		flag := ""
		if o != n || okO != okN {
			flag = "  CHANGED"
			changed++
		}
		fmt.Printf("%-50s %14d %14d%s\n", name, o, n, flag)
	}
	if changed > 0 {
		fmt.Printf("\n%d exact counts changed\n", changed)
		return 1
	}
	fmt.Println("\nexact counts unchanged")
	return 0
}

func unionKeys[V any](a, b map[string]V) []string {
	u := make(map[string]bool, len(a)+len(b))
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return sortedKeys(u)
}

// pct renders the relative change from o to n.
func pct(o, n float64) string {
	if o == 0 {
		if n == 0 {
			return "0%"
		}
		return "new"
	}
	d := 100 * (n - o) / math.Abs(o)
	return fmt.Sprintf("%+.1f%%", d)
}
