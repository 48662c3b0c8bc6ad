// Command perfbench is pmjoin's benchmark. One run executes one named
// workload against the public pmjoin API (landsat-cold) or the joinsvc
// HTTP handler (service-mix) for a fixed number of seconds, checks every
// output against a reference computed in set-up, and prints the end-to-end
// metrics — or, with --trace 1, the per-layer metrics — as one JSON object on
// the last line of standard output. README.md documents the workloads, the
// metrics and which layer metric should move which end-to-end metric.
//
//	perfbench --workload landsat-cold --seed 1 --seconds 50 --trace 0
//	perfbench compare old-trace.json new-trace.json
//
// The benchmark observes the program only from outside: it times calls into
// public functions and reads what the program already returns (Result.Report,
// Result.Exec, Result.Metrics, ServeStats, /debug/joins, runtime.MemStats).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	out      string // directory for file stores, spans and trace files
}

// report collects what one workload run produces.
type report struct {
	attempted int
	failed    int
	failures  []string
	e2e       map[string]metric // trace 0
	layers    map[string]metric // trace 1
	// selfTime is the mean self time in seconds of each span name: the
	// benchmark's spans and the program's phase walls (trace 1).
	selfTime map[string]float64
	// exact holds counts that repeat exactly for a fixed seed; compare flags
	// any change in them (trace 1).
	exact map[string]int64
	notes []string
	spans *tracer
}

func newReport(trace bool) *report {
	r := &report{
		e2e:      make(map[string]metric),
		layers:   make(map[string]metric),
		selfTime: make(map[string]float64),
		exact:    make(map[string]int64),
	}
	if trace {
		r.spans = newTracer()
	}
	return r
}

// check counts one checked operation, and a failure when ok is false.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	r.failures = append(r.failures, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// endToEndUnits lists every end-to-end metric an untraced run reports, with
// its unit; README.md defines each per workload.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"join_s_p50":    "s",
	"join_s_tail":   "s",
	"req_per_s":     "1/s",
	"peak_rss_mb":   "MB",
	"open_s_p50":    "s",
	"explain_s_p50": "s",
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *report) error{
	"landsat-cold": runLandsat,
	"service-mix":  runService,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 50, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for file stores, spans and trace files")
	_ = fs.Parse(os.Args[1:]) // ExitOnError: Parse exits on a bad flag
	if _, ok := workloads[*workload]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	rc := runConfig{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		out:      *out,
	}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	prov := collectProvenance(rc)
	fmt.Print(prov.header())

	rep := newReport(rc.trace)
	steal0, total0 := cpuSteal()
	if err := workloads[rc.workload](rc, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", rc.workload, err)
		os.Exit(1)
	}
	if steal1, total1 := cpuSteal(); total1 > total0 {
		rep.note("host: %.1f%% of CPU time was stolen by the hypervisor during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if err := finish(rc, prov, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// finish prints the human-readable summary, writes the trace files of a
// traced run, and prints the result line last.
func finish(rc runConfig, prov provenance, rep *report) error {
	for _, n := range rep.notes {
		fmt.Println("# " + n)
	}
	for i, f := range rep.failures {
		if i == 10 {
			fmt.Printf("# ... and %d more failures\n", len(rep.failures)-i)
			break
		}
		fmt.Println("# FAILED: " + f)
	}
	fail := 0.0
	if rep.attempted > 0 {
		fail = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("# fail_ratio %.6g (%d of %d operations)\n", fail, rep.failed, rep.attempted)
	shown, want := rep.e2e, endToEndUnits
	if rc.trace {
		shown, want = rep.layers, layerUnits
	}
	for name, unit := range want {
		if m, ok := shown[name]; !ok || m.Unit != unit {
			return fmt.Errorf("metric %s missing or not in %s", name, unit)
		}
	}
	if len(shown) != len(want) {
		return fmt.Errorf("%d metrics reported, %d declared", len(shown), len(want))
	}
	for _, name := range sortedKeys(shown) {
		fmt.Printf("%-28s %14.6g %s\n", name, shown[name].Value, shown[name].Unit)
	}
	if rc.trace {
		if err := writeTrace(rc, prov, rep); err != nil {
			return err
		}
	}
	line := resultLine{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   shown,
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// provenance identifies the host and build a run measured.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	StoreFS    string  `json:"store_fs"`
}

func collectProvenance(rc runConfig) provenance {
	return provenance{
		Workload:   rc.workload,
		Seed:       rc.seed,
		Seconds:    rc.seconds.Seconds(),
		Trace:      rc.trace,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     gitCommit(),
		StoreFS:    fsType(rc.out),
	}
}

func (p provenance) header() string {
	return fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%g trace=%v\n"+
		"# nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s store_fs=%s\n",
		p.Workload, p.Seed, p.Seconds, p.Trace, p.NProc, p.GOMAXPROCS, p.CPU, p.Go, p.Commit, p.StoreFS)
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit resolves HEAD from the .git directory of the working directory,
// without running git; "unknown" outside a repository.
func gitCommit() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// cpuSteal reads the steal and total ticks of the "cpu" line of
// /proc/stat (zeros without procfs).
func cpuSteal() (steal, total int64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		var v int64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// resetPeakRSS restarts the process's peak resident set (VmHWM) at the
// current resident set. Without procfs the peak keeps counting from the
// start of the process.
func resetPeakRSS() {
	// An error leaves the peak un-reset, which only widens what it covers.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	buf, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				var kb float64
				if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// No procfs: the runtime's total reservation is the closest stand-in.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
