// The zoo experiment and trace recording/replay: secpb-bench -exp zoo
// runs the workload zoo (application-class + adversarial generators)
// across the SecPB schemes, and RecordTraces / Options.TraceDir close
// the record→replay loop — a grid replayed from SPB2 files is
// byte-identical to one driven by the live generators.
package harness

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/seal"
	"secpb/internal/stats"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// runRecorded replays one cell from the recorded trace file for its
// benchmark. The simulation is identical to the live-generator path
// when the trace was recorded at the same (cfg.Seed, Ops).
func (o *Options) runRecorded(cfg config.Config, prof workload.Profile) (engine.Result, error) {
	src, err := trace.OpenFile(filepath.Join(o.TraceDir, prof.Name+".spb2"))
	if err != nil {
		return engine.Result{}, fmt.Errorf("harness: opening recorded trace: %w", err)
	}
	defer src.Close()
	return engine.RunRecorded(cfg, prof, src)
}

// RecordTraces streams each named benchmark's generator to
// <dir>/<name>.spb2 in the SPB2 format, using the same (seed, ops)
// contract as engine.RunBenchmark — cfg.Seed and Options.Ops — so the
// files replay byte-identically through Options.TraceDir. Each file is
// published by seal.WriteAtomic, as the cell cache's records are.
func RecordTraces(dir string, names []string, seed, ops uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range names {
		prof, err := workload.ByName(name)
		if err != nil {
			return err
		}
		gen, err := workload.NewGenerator(prof, seed, ops)
		if err != nil {
			return err
		}
		if err := recordOne(dir, name, gen); err != nil {
			return fmt.Errorf("harness: recording %s: %w", name, err)
		}
	}
	return nil
}

func recordOne(dir, name string, gen *workload.Generator) error {
	return seal.WriteAtomic(filepath.Join(dir, name+".spb2"), func(f io.Writer) error {
		sw := trace.NewSegWriter(f, 0)
		b := trace.NewBatch(trace.DefaultBatchCap)
		for gen.NextBatch(b) {
			if err := sw.WriteBatch(b); err != nil {
				return err
			}
		}
		return sw.Flush()
	})
}

// ZooRow is one workload's line of the zoo report: its stream
// statistics and stress profile under COBCM, plus per-scheme slowdowns
// against the insecure BBB baseline.
type ZooRow struct {
	Bench string
	// Stream statistics from the COBCM run.
	PPTI    float64
	NWPE    float64
	PeakOcc int
	// BPFrac is the fraction of cycles spent backpressured on a full
	// SecPB — the occupancy attack's signature.
	BPFrac float64
	// Slowdown is normalized execution time per scheme (vs BBB).
	Slowdown map[config.Scheme]float64
}

// zooSchemes is the scheme set the zoo grid sweeps, laziest-first like
// Table IV.
func zooSchemes() []config.Scheme {
	return []config.Scheme{
		config.SchemeCOBCM, config.SchemeOBCM, config.SchemeBCM,
		config.SchemeCM, config.SchemeM, config.SchemeNoGap,
	}
}

// Zoo runs the workload zoo across the SecPB schemes. Options.Benchmarks
// restricts the set (names resolve through the zoo too); the default is
// every zoo profile. The grid fans out over Options.Parallelism and is
// reassembled in input order, so the artifact is byte-identical at any
// parallelism, memoization, or TraceDir-replay setting.
func Zoo(o Options) ([]ZooRow, *stats.Table, error) {
	names := o.Benchmarks
	if len(names) == 0 {
		names = workload.ZooNames()
	}
	profs := make([]workload.Profile, len(names))
	for i, name := range names {
		p, err := workload.ByName(name)
		if err != nil {
			return nil, nil, err
		}
		profs[i] = p
	}
	schemes := zooSchemes()
	// Per workload: one BBB baseline, then every scheme.
	perProf := 1 + len(schemes)
	jobs := make([]simJob, 0, len(profs)*perProf)
	for _, p := range profs {
		jobs = append(jobs, simJob{o.Cfg.WithScheme(config.SchemeBBB), p})
		for _, s := range schemes {
			jobs = append(jobs, simJob{o.Cfg.WithScheme(s), p})
		}
	}
	results, err := o.runAll(jobs)
	if err != nil {
		return nil, nil, err
	}

	cols := []string{"Workload", "PPTI", "NWPE", "PeakOcc", "BP%"}
	for _, s := range schemes {
		cols = append(cols, s.String())
	}
	tab := stats.NewTable(
		fmt.Sprintf("Workload zoo: stream stats (COBCM) and slowdowns vs BBB, %d-entry SecPB",
			o.Cfg.SecPBEntries),
		cols...)
	rows := make([]ZooRow, 0, len(profs))
	for pi, p := range profs {
		base := results[pi*perProf]
		row := ZooRow{Bench: p.Name, Slowdown: map[config.Scheme]float64{}}
		cells := []string{p.Name}
		for si, s := range schemes {
			res := results[pi*perProf+1+si]
			row.Slowdown[s] = float64(res.Cycles) / float64(base.Cycles)
			if s == config.SchemeCOBCM {
				row.PPTI = res.PPTI
				row.NWPE = res.NWPE
				row.PeakOcc = res.PeakOccupancy
				row.BPFrac = float64(res.Backpressure) / float64(res.Cycles)
			}
		}
		cells = append(cells,
			fmt.Sprintf("%.1f", row.PPTI),
			fmt.Sprintf("%.1f", row.NWPE),
			fmt.Sprintf("%d", row.PeakOcc),
			fmt.Sprintf("%.1f%%", row.BPFrac*100))
		for _, s := range schemes {
			cells = append(cells, stats.Percent(row.Slowdown[s]))
		}
		tab.AddRowStrings(cells...)
		rows = append(rows, row)
	}
	return rows, tab, nil
}
