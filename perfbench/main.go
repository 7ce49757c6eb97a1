// Command perfbench is the repository benchmark. It drives one of four
// workloads through the simulator's packages for a fixed number of
// seconds, checks that the workload's outputs are correct, and prints
// every metric by name and unit. The last line of standard output is a
// JSON summary: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload paper-sweep --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run times the calls into each layer and prints the
// per-layer metrics. See README.md for every metric and workload.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed whose correctness digests are recorded in the
// benchmark (see sweep.go and multicore.go).
const defaultSeed = 1

// runCtx is what every workload receives.
type runCtx struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	workers  int    // = nproc: workers, sessions and connections never exceed it
	scratch  string // private directory for durable state, removed on exit
	ackLimit time.Duration
}

// deadline is the end of the measured phase that starts now.
func (c *runCtx) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(float64(c.seconds) * share))
}

// report collects one run's metrics, checks and counts.
type report struct {
	rss       rssReadings
	e2e       []metric
	info      []metric // printed and recorded, but not in BENCHMARK.json
	layer     []metric
	lines     []string
	checks    []check
	warnings  []string
	attempted int
	failed    int
}

type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

func (r *report) addE2E(m metric)   { r.e2e = append(r.e2e, m) }
func (r *report) addInfo(m metric)  { r.info = append(r.info, m) }
func (r *report) addLayer(m metric) { r.layer = append(r.layer, m) }
func (r *report) linef(format string, a ...interface{}) {
	r.lines = append(r.lines, fmt.Sprintf(format, a...))
}

// unit runs one measured unit of work and reads its resident set. The
// heap is collected and returned to the OS first, so the readings are
// the unit's own demand rather than what earlier units left behind.
func (r *report) unit(fn func()) {
	debug.FreeOSMemory()
	r.rss.during(fn)
}

// setups runs fn n times, each on a collected heap so it is timed
// building its inputs rather than paying for the previous set-up's
// garbage, and returns each duration in seconds.
func (r *report) setups(n int, fn func() error) (samples, error) {
	var s samples
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		s = append(s, time.Since(t0).Seconds())
	}
	return s, nil
}

// warn records a measurement-validity problem of this run.
func (r *report) warn(msg string) { r.warnings = append(r.warnings, msg) }

// expect records a correctness check.
func (r *report) expect(name string, ok bool) { r.checks = append(r.checks, check{name, ok}) }

// control records a negative control: a deliberately broken output
// that the check must reject. It passes when the check failed.
func (r *report) control(name string, checkPassed bool) {
	r.checks = append(r.checks, check{"negative control: " + name, !checkPassed})
}

func (r *report) correct() bool {
	if len(r.checks) == 0 {
		return false
	}
	for _, c := range r.checks {
		if !c.OK {
			return false
		}
	}
	return true
}

type workloadFunc func(*runCtx, *report) error

var workloads = map[string]workloadFunc{
	"paper-sweep":  runPaperSweep,
	"crash-matrix": runCrashMatrix,
	"stream":       runStream,
	"multicore":    runMulticore,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: paper-sweep, crash-matrix, stream or multicore")
	seed := flag.Uint64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 20, "measured seconds per run")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	ackLimit := flag.Float64("ack-limit-ms", 100, "p99 ack latency limit for max_ok_rate")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) || *ackLimit <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1, --trace 0 or 1, --ack-limit-ms > 0")
		return 2
	}
	root, err := findRepoRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	build := filepath.Join(root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	// An interrupted run still removes its scratch state.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		os.RemoveAll(scratch)
		os.Exit(1)
	}()

	ctx := &runCtx{
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		workers:  runtime.NumCPU(),
		scratch:  scratch,
		ackLimit: time.Duration(*ackLimit * float64(time.Millisecond)),
	}
	runtime.GOMAXPROCS(ctx.workers)
	fp := fingerprint(root, *name, *seed, ctx.traced)
	fmt.Printf("fingerprint %s\n", mustJSON(fp))

	rep := &report{}
	if err := fn(ctx, rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if !ctx.traced {
		rep.addE2E(metric{Name: "mean_rss_mb", Value: rep.rss.mean(), Unit: "MB", N: rep.rss.readings})
		rep.addInfo(rep.rss.peaks.percentileMetric("peak_rss_mb", "MB", 1))
	}
	ff := 0.0
	if rep.attempted > 0 {
		ff = float64(rep.failed) / float64(rep.attempted)
	}
	rep.linef("failed_frac %.6f (%d failed or refused of %d attempted)", ff, rep.failed, rep.attempted)
	if rep.attempted < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: workload attempted nothing")
		return 1
	}

	shown, want := rep.e2e, e2eMetrics
	if ctx.traced {
		shown, want = rep.layer, layerMetrics
	}
	if err := sameMetrics(shown, want); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	for _, m := range append(append([]metric(nil), shown...), rep.info...) {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s: metric %s has no value (no samples)\n", *name, m.Name)
			return 1
		}
	}
	for _, c := range rep.checks {
		fmt.Printf("check %-60s %s\n", c.Name, map[bool]string{true: "PASS", false: "FAIL"}[c.OK])
	}
	for _, l := range rep.lines {
		fmt.Println(l)
	}
	for _, w := range rep.warnings {
		fmt.Println("warning", w)
	}
	for _, m := range shown {
		fmt.Println(formatMetric(m))
	}
	for _, m := range rep.info {
		fmt.Println(formatMetric(m) + "  [not in BENCHMARK.json]")
	}
	record := map[string]interface{}{
		"fingerprint": fp,
		"metrics":     shown,
		"info":        rep.info,
		"checks":      rep.checks,
		"warnings":    rep.warnings,
		"failed_frac": ff,
		"attempted":   rep.attempted,
		"failed":      rep.failed,
	}
	fmt.Printf("record %s\n", mustJSON(record))

	out := map[string]interface{}{}
	for _, m := range shown {
		out[m.Name] = map[string]interface{}{"value": m.Value, "unit": m.Unit}
	}
	fmt.Println(mustJSON(map[string]interface{}{
		"correct":   rep.correct(),
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   out,
	}))
	return 0
}

// sameMetrics checks that got holds each metric of want once, in its
// unit, and nothing else: the result line must list every metric of
// BENCHMARK.json on every workload.
func sameMetrics(got []metric, want []named) error {
	units := map[string]string{}
	for _, m := range got {
		if _, dup := units[m.Name]; dup {
			return fmt.Errorf("metric %s reported twice", m.Name)
		}
		units[m.Name] = m.Unit
	}
	for _, w := range want {
		u, ok := units[w.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", w.name)
		}
		if u != w.unit {
			return fmt.Errorf("metric %s in %s, want %s", w.name, u, w.unit)
		}
		delete(units, w.name)
	}
	for n := range units {
		return fmt.Errorf("metric %s is not in BENCHMARK.json", n)
	}
	return nil
}

func formatMetric(m metric) string {
	s := fmt.Sprintf("metric %-40s %14.6g %s", m.Name, m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf("  (n=%d", m.N)
		if m.Tail != "" {
			s += fmt.Sprintf(", %s=%.6g %s", m.Tail, m.TailV, m.Unit)
		}
		s += ")"
	}
	return s
}

func mustJSON(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps, slices and numbers are marshalled
	}
	return string(b)
}

// findRepoRoot walks up from the working directory to the directory
// holding the simulator's go.mod (module secpb) and its sources. Run
// without them, the benchmark fails here.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(string(b), "module secpb\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("simulator sources (go.mod of module secpb) not found above the working directory")
		}
		dir = parent
	}
}

// fingerprint identifies the host and the code a result was measured
// on. Outside a git checkout the commit is a hash of the Go sources.
func fingerprint(root, workload string, seed uint64, traced bool) map[string]interface{} {
	return map[string]interface{}{
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commitID(root),
		"seed":       seed,
		"workload":   workload,
		"traced":     traced,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "model name") {
			if i := strings.IndexByte(line, ':'); i >= 0 {
				return strings.TrimSpace(line[i+1:])
			}
		}
	}
	return runtime.GOARCH
}

func commitID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if id, err := os.ReadFile(filepath.Join(root, ".git", strings.TrimPrefix(ref, "ref: "))); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
