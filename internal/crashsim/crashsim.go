// Package crashsim crash-tests the SecPB persistence pipeline by
// differential injection. A seeded workload trace is executed on the
// full engine/controller/persist-buffer stack, which fires a cheap hook
// at every crash-relevant micro-op boundary (store acceptance, SecPB
// entry allocation, WPQ flush, counter persist, BMT sweep). At chosen
// hook firings the simulated machine "loses power": the persisted NV
// image and the battery-backed SecPB/WPQ state are copied into recycled
// stores, the scheme's post-crash late work is run on the copy, and the
// recovered memory tuple (ciphertext, counter, MAC, BMT root) is
// verified byte for byte against a shadow golden model that replays
// exactly the committed-store prefix of the trace. Crash points can be
// sampled (seeded, without replacement) for large traces or enumerated
// exhaustively for small ones, and cells of the scheme × workload grid
// fan out over a worker pool.
package crashsim

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/crashpoint"
	"secpb/internal/runner"
	"secpb/internal/trace"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// Options selects the crash-matrix grid and its exploration budget.
type Options struct {
	Schemes   []config.Scheme // default: all six SecPB schemes
	Workloads []string        // default: gcc
	Ops       int             // trace length per cell (default 2000)
	Seed      uint64          // base seed; each cell derives its own
	Points    int             // crash points sampled per cell; <=0 = exhaustive
	Workers   int             // worker pool size; <=0 = runner default
	Entries   int             // SecPB entries; <=0 = config default
	Key       []byte          // memory-encryption key (default fixed)
}

func (o Options) withDefaults() Options {
	if len(o.Schemes) == 0 {
		o.Schemes = config.SecPBSchemes()
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"gcc"}
	}
	if o.Ops <= 0 {
		o.Ops = 2000
	}
	if len(o.Key) == 0 {
		o.Key = []byte("crashsim-fixed-verification-key!")
	}
	return o
}

// CellResult is the crash-matrix outcome for one scheme × workload cell.
type CellResult struct {
	Scheme      string            `json:"scheme"`
	Workload    string            `json:"workload"`
	Ops         int               `json:"ops"`
	Seed        uint64            `json:"seed"`
	TotalPoints uint64            `json:"total_points"`
	ByKind      map[string]uint64 `json:"points_by_kind"`
	Injected    int               `json:"injected"`
	Drained     int               `json:"entries_drained"`
	Checked     int               `json:"blocks_checked"`
	Failures    int               `json:"failures"`
	FirstBad    string            `json:"first_bad,omitempty"`
}

// Matrix is the full crash-matrix artifact.
type Matrix struct {
	Ops    int          `json:"ops"`
	Seed   uint64       `json:"seed"`
	Points int          `json:"points_per_cell"`
	Cells  []CellResult `json:"cells"`
}

// Clean reports whether every cell recovered every injected crash point
// byte-identical to the golden model.
func (m *Matrix) Clean() bool {
	for i := range m.Cells {
		if m.Cells[i].Failures > 0 {
			return false
		}
	}
	return true
}

// WriteJSON emits the artifact with deterministic key order (map keys
// are sorted by encoding/json; cells keep grid order).
func (m *Matrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Render writes a human-readable table of the matrix.
func (m *Matrix) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tworkload\tpoints\tinjected\tdrained\tchecked\tfailures\tstatus")
	for i := range m.Cells {
		c := &m.Cells[i]
		status := "ok"
		if c.Failures > 0 {
			status = "FAIL: " + c.FirstBad
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%s\n",
			c.Scheme, c.Workload, c.TotalPoints, c.Injected, c.Drained, c.Checked, c.Failures, status)
	}
	return tw.Flush()
}

// chooseTriggers picks k distinct point ordinals out of total using
// Floyd's sampling so huge totals never allocate more than k slots.
// k<=0 or k>=total enumerates every point.
func chooseTriggers(total uint64, k int, seed uint64) []uint64 {
	if k <= 0 || uint64(k) >= total {
		out := make([]uint64, total)
		for i := range out {
			out[i] = uint64(i)
		}
		return out
	}
	r := xrand.New(seed)
	chosen := make(map[uint64]struct{}, k)
	for j := total - uint64(k); j < total; j++ {
		t := r.Uint64n(j + 1)
		if _, dup := chosen[t]; dup {
			chosen[j] = struct{}{}
		} else {
			chosen[t] = struct{}{}
		}
	}
	out := make([]uint64, 0, k)
	for t := range chosen {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cellConfig(opts Options, scheme config.Scheme, seed uint64) config.Config {
	cfg := config.Default().WithScheme(scheme)
	cfg.Seed = seed
	if opts.Entries > 0 {
		cfg = cfg.WithSecPBEntries(opts.Entries)
	}
	return cfg
}

// TraceOptions parameterizes a single-trace injection run.
type TraceOptions struct {
	Points int               // crash points to sample; <=0 = exhaustive
	Seed   uint64            // trigger-sampling seed
	Kinds  []crashpoint.Kind // restrict to these kinds; empty = all
}

// InjectTrace crash-tests one prepared op slice (synthetic, recorded, or
// reordered-for-relaxed-consistency) under cfg: a first pass counts the
// run's crash points, a trigger set is drawn, and a second identical run
// (the simulator is deterministic) crashes, recovers and verifies at
// each trigger with the standard four-way RecoverVerify.
func InjectTrace(cfg config.Config, prof workload.Profile, key []byte, ops []trace.Op, topt TraceOptions) (CellResult, error) {
	return InjectTraceWith(cfg, prof, key, ops, topt, nil)
}

// InjectTraceWith is InjectTrace with a custom recovery handler: the
// injection machinery (point counting, trigger sampling, snapshot
// capture, golden shadow) is identical, but each triggered crash is
// handed to h instead of the standard RecoverVerify — the hook for
// degraded-recovery scenarios such as nested battery-exhaustion crashes.
// A nil h uses the standard handler. The cell's Injected count is
// maintained for every handler; Drained/Checked/Failures are only
// meaningful under the standard one (custom handlers accumulate their
// own findings).
//
// The cell runs on a rig from a package pool (see rig): the engine,
// snapshot stores and recovery state of an earlier cell, reset in
// place, so consecutive cells on one worker allocate almost nothing.
// A reset rig behaves exactly as a new one — findings, points and memo
// counts included.
func InjectTraceWith(cfg config.Config, prof workload.Profile, key []byte, ops []trace.Op, topt TraceOptions, h Handler) (CellResult, error) {
	r := rigs.Get().(*rig)
	cell, err := r.inject(cfg, prof, key, ops, topt, h)
	rigs.Put(r)
	return cell, err
}

// inject is InjectTraceWith on the rig r.
func (r *rig) inject(cfg config.Config, prof workload.Profile, key []byte, ops []trace.Op, topt TraceOptions, h Handler) (CellResult, error) {
	cell := CellResult{Scheme: cfg.Scheme.String(), Workload: prof.Name, Ops: len(ops), Seed: cfg.Seed}
	if err := r.snap.rec.reset(cfg, key); err != nil {
		return cell, err
	}
	handle := func(snap *Snapshot, golden map[addr.Block][addr.BlockBytes]byte) error {
		cell.Injected++
		if h != nil {
			return h(snap, golden)
		}
		res, err := snap.RecoverVerify(golden)
		if err != nil {
			return err
		}
		cell.Drained += res.EntriesDrained
		cell.Checked += res.BlocksChecked
		if res.Failures > 0 {
			cell.Failures += res.Failures
			if cell.FirstBad == "" {
				cell.FirstBad = fmt.Sprintf("%s point %d (op %d, %d committed): %s",
					snap.Kind, snap.PointIndex, snap.OpIndex, snap.Committed, res.FirstBad)
			}
		}
		return nil
	}
	var err error
	cell.TotalPoints, cell.ByKind, err = twoPass(topt, fmt.Sprintf("%s/%s", cfg.Scheme, prof.Name),
		func(triggers []uint64) (crashRun, error) {
			return newInjector(r, cfg, prof, key, ops, triggers, handle)
		})
	return cell, err
}

// crashRun is one pass of a crash cell: an Injector or a systemInjector.
type crashRun interface {
	setKinds(kinds []crashpoint.Kind)
	Run() error
	Points() (total uint64, perKind []uint64)
}

// twoPass drives a crash cell's two passes, each on a run newRun builds
// over the given triggers and restricts to topt.Kinds. The first pass
// has no triggers and counts the run's points, which it returns in
// total and, per kind, in byKind; the second crashes at triggers
// sampled from that count, which it fires again because the simulator
// is deterministic. name labels the cell in the error for a run that
// fires no points.
func twoPass(topt TraceOptions, name string, newRun func(triggers []uint64) (crashRun, error)) (total uint64, byKind map[string]uint64, err error) {
	run := func(triggers []uint64) (crashRun, error) {
		in, err := newRun(triggers)
		if err != nil {
			return nil, err
		}
		in.setKinds(topt.Kinds)
		return in, in.Run()
	}
	count, err := run(nil)
	if err != nil {
		return 0, nil, err
	}
	total, perKind := count.Points()
	byKind = make(map[string]uint64, crashpoint.NumKinds())
	for _, k := range crashpoint.Kinds() {
		if n := perKind[k]; n > 0 {
			byKind[k.String()] = n
		}
	}
	if total == 0 {
		return total, byKind, fmt.Errorf("crashsim: %s fired no crash points", name)
	}
	_, err = run(chooseTriggers(total, topt.Points, topt.Seed))
	return total, byKind, err
}

// RunCell explores one scheme × workload cell of the matrix grid with a
// derived per-cell seed for both the trace and the trigger sample.
func RunCell(scheme config.Scheme, wl string, opts Options) (CellResult, error) {
	opts = opts.withDefaults()
	cell := CellResult{Scheme: scheme.String(), Workload: wl, Ops: opts.Ops}
	prof, err := workload.ByName(wl)
	if err != nil {
		return cell, err
	}
	seed := xrand.CellSeed(opts.Seed, scheme.String(), wl)
	cfg := cellConfig(opts, scheme, seed)
	ops, err := workload.Generate(prof, seed, opts.Ops)
	if err != nil {
		return cell, err
	}
	cell, err = InjectTrace(cfg, prof, opts.Key, ops, TraceOptions{Points: opts.Points, Seed: seed ^ 0xC0FFEE})
	cell.Workload = wl
	return cell, err
}

// Explore runs the full scheme × workload grid, fanning cells out over a
// bounded worker pool. A running cell holds its own trace and a rig no
// other cell holds (see InjectTraceWith), so cells parallelize without
// sharing.
func Explore(ctx context.Context, opts Options) (*Matrix, error) {
	opts = opts.withDefaults()
	type cellKey struct {
		scheme config.Scheme
		wl     string
	}
	var cells []cellKey
	for _, s := range opts.Schemes {
		for _, w := range opts.Workloads {
			cells = append(cells, cellKey{s, w})
		}
	}
	results, err := runner.Map(ctx, opts.Workers, cells, func(_ context.Context, _ int, c cellKey) (CellResult, error) {
		return RunCell(c.scheme, c.wl, opts)
	})
	if err != nil {
		return nil, err
	}
	return &Matrix{Ops: opts.Ops, Seed: opts.Seed, Points: opts.Points, Cells: results}, nil
}
