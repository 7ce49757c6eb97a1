// Command secpb-bench regenerates the paper's evaluation artifacts:
// every table and figure of Section VI plus the ablation, sensitivity
// and gap-window extension studies — as plain text (default) or JSON.
//
// Usage:
//
//	secpb-bench -exp all
//	secpb-bench -exp table4 -ops 200000
//	secpb-bench -exp fig6,fig9 -bench gamess,povray -v
//	secpb-bench -exp table4,table5 -json > results.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"secpb/internal/config"
	"secpb/internal/harness"
	"secpb/internal/runner"
	"secpb/internal/workload"
)

var allExperiments = []string{
	"table4", "fig6", "table5", "table6", "fig7", "fig8", "fig9",
	"stats", "ablation", "gaps", "sensitivity", "multicore", "zoo", "stress",
}

// parseCores parses the -cores flag: a comma list of positive core
// counts for the multicore battery grid.
func parseCores(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad core count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// main delegates to benchMain so deferred cleanup (profile writers)
// runs before the process exits — os.Exit skips defers.
func main() {
	os.Exit(benchMain())
}

func benchMain() int {
	var (
		exp      = flag.String("exp", "all", "experiments: all or comma list of "+strings.Join(allExperiments, ","))
		ops      = flag.Uint64("ops", 100_000, "memory operations per benchmark per configuration")
		benches  = flag.String("bench", "", "comma list of benchmarks (default: all 18)")
		entries  = flag.Int("secpb", 32, "SecPB entries for the default configuration")
		parallel = flag.Int("parallel", 0, "simulation workers (0 = one per CPU core, 1 = serial); output is identical at any value")
		cores    = flag.String("cores", "", "comma list of core counts for the multicore battery grid (default 1,8,64,256); cores=1 artifacts are byte-identical to the single-core path")
		memo     = flag.Bool("memo", true, "cache simulation cells by content so overlapping experiment grids simulate each unique (config, benchmark, ops) cell once; output is identical either way")
		memodir  = flag.String("memodir", "", "persist the cell cache in this directory: warm re-runs replay cached cells instead of simulating (records are content-keyed, version-stamped and checksummed; anything stale or corrupt is recomputed); output is identical either way")
		tracedir = flag.String("tracedir", "", "replay each benchmark's recorded SPB2 trace from <dir>/<name>.spb2 instead of generating the stream live; traces recorded with -record at the same ops yield byte-identical artifacts")
		record   = flag.Bool("record", false, "record the selected benchmarks' traces (default: the workload zoo) into -tracedir before running")
		verbose  = flag.Bool("v", false, "print per-simulation progress")
		asJSON   = flag.Bool("json", false, "emit machine-readable JSON instead of rendered text")
		timing   = flag.String("timing", "", "write per-experiment wall-clock timings as JSON to this file")
		cpuProf  = flag.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memProf  = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err == nil {
				runtime.GC() // settle the heap so the profile shows retained memory
				err = pprof.WriteHeapProfile(f)
			}
			if err == nil {
				err = f.Close()
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "secpb-bench: memprofile: %v\n", err)
			}
		}()
	}

	gridCores, err := parseCores(*cores)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-bench: -cores: %v\n", err)
		return 2
	}
	if len(gridCores) == 0 {
		gridCores = []int{1, 8, 64, 256}
	}

	opt := harness.DefaultOptions()
	opt.Ops = *ops
	opt.Cfg = config.Default().WithSecPBEntries(*entries)
	opt.Parallelism = *parallel
	if *memo {
		opt.Memo = harness.NewCellMemo()
	}
	var cellStore *harness.DiskCellStore
	var batteryStore *harness.DiskBatteryStore
	if *memodir != "" {
		if opt.Memo == nil {
			fmt.Fprintln(os.Stderr, "secpb-bench: -memodir requires -memo=true")
			return 2
		}
		cellStore, err = harness.NewDiskCellStore(*memodir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: -memodir: %v\n", err)
			return 1
		}
		opt.Memo.SetStore(cellStore)
		batteryStore, err = harness.NewDiskBatteryStore(*memodir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: -memodir: %v\n", err)
			return 1
		}
		opt.Battery = harness.NewBatteryMemo()
		opt.Battery.SetStore(batteryStore)
	}
	if *benches != "" {
		opt.Benchmarks = strings.Split(*benches, ",")
	}
	if *record {
		if *tracedir == "" {
			fmt.Fprintln(os.Stderr, "secpb-bench: -record requires -tracedir")
			return 2
		}
		names := opt.Benchmarks
		if len(names) == 0 {
			names = workload.ZooNames()
		}
		if err := harness.RecordTraces(*tracedir, names, opt.Cfg.Seed, opt.Ops); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: -record: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "recorded %d traces to %s\n", len(names), *tracedir)
	}
	opt.TraceDir = *tracedir
	if *verbose {
		// Simulations run concurrently under -parallel; serialize the
		// progress lines so they never interleave mid-line.
		var progressMu sync.Mutex
		opt.Progress = func(msg string) {
			progressMu.Lock()
			defer progressMu.Unlock()
			fmt.Fprintln(os.Stderr, "  "+msg)
		}
	}

	want := map[string]bool{}
	if *exp == "all" {
		for _, e := range allExperiments {
			want[e] = true
		}
	} else {
		for _, e := range strings.Split(*exp, ",") {
			want[strings.TrimSpace(e)] = true
		}
	}

	jsonOut := map[string]interface{}{}
	timings := map[string]float64{}
	startAll := time.Now()
	failed := false
	run := func(name string, fn func() (fmt.Stringer, interface{}, error)) {
		if failed || !want[name] {
			return
		}
		delete(want, name)
		fmt.Fprintf(os.Stderr, "== %s (ops=%d) ==\n", name, opt.Ops)
		start := time.Now()
		art, raw, err := fn()
		timings[name] = time.Since(start).Seconds()
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: %s: %v\n", name, err)
			failed = true
			return
		}
		if *asJSON {
			if raw == nil {
				raw = art.String()
			}
			jsonOut[name] = raw
		} else {
			fmt.Println(art)
		}
	}

	run("table4", func() (fmt.Stringer, interface{}, error) {
		grid, tab, err := harness.Table4(opt)
		return tab, grid, err
	})
	run("fig6", func() (fmt.Stringer, interface{}, error) {
		grid, bars, err := harness.Figure6(opt)
		return bars, grid, err
	})
	run("table5", func() (fmt.Stringer, interface{}, error) {
		rows, tab, err := harness.Table5(opt.Cfg)
		return tab, rows, err
	})
	run("table6", func() (fmt.Stringer, interface{}, error) {
		tab, err := harness.Table6(opt.Cfg)
		return tab, nil, err
	})
	run("fig7", func() (fmt.Stringer, interface{}, error) {
		vals, bars, err := harness.Figure7(opt)
		return bars, vals, err
	})
	run("fig8", func() (fmt.Stringer, interface{}, error) {
		vals, tab, err := harness.Figure8(opt)
		return tab, vals, err
	})
	run("fig9", func() (fmt.Stringer, interface{}, error) {
		vals, bars, err := harness.Figure9(opt)
		return bars, vals, err
	})
	run("stats", func() (fmt.Stringer, interface{}, error) {
		tab, err := harness.StatsReport(opt)
		return tab, nil, err
	})
	run("ablation", func() (fmt.Stringer, interface{}, error) {
		tab, err := harness.Ablation(opt)
		return tab, nil, err
	})
	run("gaps", func() (fmt.Stringer, interface{}, error) {
		tab, err := harness.GapsReport(opt)
		return tab, nil, err
	})
	run("sensitivity", func() (fmt.Stringer, interface{}, error) {
		tab, err := harness.Sensitivity(opt)
		return tab, nil, err
	})
	run("multicore", func() (fmt.Stringer, interface{}, error) {
		grid, tab, err := harness.MulticoreBattery(opt, gridCores)
		return tab, grid, err
	})
	run("zoo", func() (fmt.Stringer, interface{}, error) {
		rows, tab, err := harness.Zoo(opt)
		return tab, rows, err
	})
	run("stress", func() (fmt.Stringer, interface{}, error) {
		rows, tab, err := harness.StressBattery(opt)
		return tab, rows, err
	})

	if failed {
		return 1
	}
	for leftover := range want {
		fmt.Fprintf(os.Stderr, "secpb-bench: unknown experiment %q\n", leftover)
		return 2
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: encoding JSON: %v\n", err)
			return 1
		}
	}
	if *verbose && opt.Memo != nil {
		hits, misses := opt.Memo.Stats()
		fmt.Fprintf(os.Stderr, "memo: %d unique cells simulated, %d duplicate cells reused\n", misses, hits)
	}
	if *verbose && cellStore != nil {
		cs, bs := cellStore.Stats(), batteryStore.Stats()
		fmt.Fprintf(os.Stderr,
			"memodir: %d cells replayed from disk, %d simulated and saved, %d corrupt records recomputed\n",
			cs.Hits+bs.Hits, cs.Saves+bs.Saves, cs.Corrupt+bs.Corrupt)
	}
	if *timing != "" {
		workers := *parallel
		if workers <= 0 {
			workers = runner.DefaultWorkers()
		}
		report := map[string]interface{}{
			"ops":           *ops,
			"parallelism":   workers,
			"cores":         gridCores,
			"experiments_s": timings,
			"total_s":       time.Since(startAll).Seconds(),
		}
		if opt.Memo != nil {
			hits, misses := opt.Memo.Stats()
			report["memo_hits"] = hits
			report["memo_misses"] = misses
		}
		if cellStore != nil {
			cs, bs := cellStore.Stats(), batteryStore.Stats()
			report["disk_hits"] = cs.Hits + bs.Hits
			report["disk_saves"] = cs.Saves + bs.Saves
			report["disk_corrupt"] = cs.Corrupt + bs.Corrupt
		}
		data, err := json.MarshalIndent(report, "", "  ")
		if err == nil {
			err = os.WriteFile(*timing, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-bench: writing timing report: %v\n", err)
			return 1
		}
	}
	return 0
}
