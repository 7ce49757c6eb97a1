package recovery

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"

	"secpb/internal/addr"
	"secpb/internal/config"
	"secpb/internal/energy"
	"secpb/internal/engine"
	"secpb/internal/runner"
	"secpb/internal/workload"
	"secpb/internal/xrand"
)

// HealOptions selects the degraded-mode heal grid: every scheme ×
// workload cell runs a seeded trace on faulty media, crashes, drains
// its late work through battery-budgeted boots, suffers latent bit-rot
// decay, and triages the image block by block. The differential check
// compares every non-quarantined block against the engine's committed
// memory model.
type HealOptions struct {
	Schemes   []config.Scheme // default: all six SecPB schemes
	Workloads []string        // default: gcc
	Ops       uint64          // trace length per cell (default 4000)
	Seed      uint64          // base seed; each cell derives its own
	Workers   int             // worker pool size; <=0 = runner default

	WriteFailRate float64 // transient write-fail probability per PM write
	TornRate      float64 // torn-write probability per PM write
	RotRate       float64 // latent bit-rot probability per block visit
	BudgetEntries float64 // battery reserve per recovery boot, in entries (<=0 = wall power)

	Key []byte // memory-encryption key (default fixed)
}

func (o HealOptions) withDefaults() HealOptions {
	if len(o.Schemes) == 0 {
		o.Schemes = config.SecPBSchemes()
	}
	if len(o.Workloads) == 0 {
		o.Workloads = []string{"gcc"}
	}
	if o.Ops == 0 {
		o.Ops = 4000
	}
	if len(o.Key) == 0 {
		o.Key = []byte("secpb-heal-fixed-key-material!!!")
	}
	return o
}

// HealCell is the heal-grid outcome for one scheme × workload cell.
type HealCell struct {
	Scheme   string `json:"scheme"`
	Workload string `json:"workload"`
	Ops      uint64 `json:"ops"`
	Seed     uint64 `json:"seed"`

	Boots       int `json:"recovery_boots"`  // budgeted boots until the journal completed
	Drained     int `json:"entries_drained"` // late-work entries replayed
	Blocks      int `json:"blocks"`          // persisted blocks triaged
	Clean       int `json:"clean"`
	Recoverable int `json:"recoverable"`
	Quarantined int `json:"quarantined"`
	Decayed     int `json:"decayed"` // blocks hit by post-crash bit rot

	WriteRetries  uint64 `json:"write_retries"`
	Remaps        uint64 `json:"remaps"`
	BackoffCycles uint64 `json:"backoff_cycles"`

	// Mismatches counts clean/recoverable blocks whose salvaged
	// plaintext differs from the committed memory model; MissedDecay
	// counts rotted blocks that escaped quarantine. Both must be zero
	// for the cell to be healthy.
	Mismatches  int    `json:"mismatches"`
	MissedDecay int    `json:"missed_decay"`
	FirstBad    string `json:"first_bad,omitempty"`
}

// Healthy reports whether degraded-mode recovery held its contract in
// this cell: all surviving data byte-identical, all rot quarantined.
func (c *HealCell) Healthy() bool { return c.Mismatches == 0 && c.MissedDecay == 0 }

// HealMatrix is the full heal-grid artifact.
type HealMatrix struct {
	Ops           uint64     `json:"ops"`
	Seed          uint64     `json:"seed"`
	WriteFailRate float64    `json:"write_fail_rate"`
	TornRate      float64    `json:"torn_rate"`
	RotRate       float64    `json:"rot_rate"`
	BudgetEntries float64    `json:"budget_entries"`
	Cells         []HealCell `json:"cells"`
}

// Healthy reports whether every cell held the degraded-mode contract.
func (m *HealMatrix) Healthy() bool {
	for i := range m.Cells {
		if !m.Cells[i].Healthy() {
			return false
		}
	}
	return true
}

// WriteJSON emits the artifact with deterministic field order.
func (m *HealMatrix) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// Render writes a human-readable table of the heal grid.
func (m *HealMatrix) Render(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheme\tworkload\tboots\tdrained\tblocks\tclean\trecov\tquar\tdecayed\tretries\tremaps\tstatus")
	for i := range m.Cells {
		c := &m.Cells[i]
		status := "ok"
		if !c.Healthy() {
			status = "FAIL: " + c.FirstBad
		}
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			c.Scheme, c.Workload, c.Boots, c.Drained, c.Blocks, c.Clean, c.Recoverable,
			c.Quarantined, c.Decayed, c.WriteRetries, c.Remaps, status)
	}
	return tw.Flush()
}

func (c *HealCell) fail(msg string) {
	if c.FirstBad == "" {
		c.FirstBad = msg
	}
}

// RunHealCell runs one scheme × workload cell of the heal grid.
func RunHealCell(scheme config.Scheme, wl string, opts HealOptions) (HealCell, error) {
	opts = opts.withDefaults()
	cell := HealCell{Scheme: scheme.String(), Workload: wl, Ops: opts.Ops}
	prof, err := workload.ByName(wl)
	if err != nil {
		return cell, err
	}
	seed := xrand.CellSeed(opts.Seed, scheme.String(), wl)
	cell.Seed = seed
	cfg := config.Default().WithScheme(scheme)
	cfg.Seed = seed
	cfg.FaultSeed = seed ^ 0xFA017
	cfg.FaultWriteFailRate = opts.WriteFailRate
	cfg.FaultTornRate = opts.TornRate
	cfg.FaultRotRate = opts.RotRate

	e, err := engine.New(cfg, prof, opts.Key)
	if err != nil {
		return cell, err
	}
	gen, err := workload.NewGenerator(prof, seed, opts.Ops)
	if err != nil {
		return cell, err
	}
	if err := e.RunBatch(gen); err != nil {
		return cell, err
	}
	golden := e.Memory()
	mc := e.Controller()

	// Crash: drain the battery-backed late work through budgeted boots.
	j := NewJournal(e.SecPB().AppendEntries(nil))
	for !j.Complete() {
		var budget *energy.Budget
		if opts.BudgetEntries > 0 {
			perJ, perr := energy.PerEntryDrainJ(scheme, cfg.BMTLevels)
			if perr != nil {
				return cell, perr
			}
			budget = energy.NewBudget(opts.BudgetEntries * perJ)
		}
		_, derr := DrainEntriesBudget(mc, j, budget)
		cell.Boots++
		if derr == nil {
			break
		}
		if !errors.Is(derr, ErrBatteryExhausted) {
			return cell, derr
		}
		if cell.Boots > j.Len()+1 {
			return cell, fmt.Errorf("heal: budget of %.2f entries makes no progress", opts.BudgetEntries)
		}
	}
	cell.Drained = j.Done()

	stats := mc.MediaStats()
	cell.WriteRetries = stats.WriteRetries
	cell.Remaps = stats.Remaps
	cell.BackoffCycles = stats.BackoffCycles

	// Latent decay over the resting image, then block-granular triage.
	decayed := mc.PM().Decay()
	cell.Decayed = len(decayed)
	rotted := make(map[addr.Block]bool, len(decayed))
	for _, b := range decayed {
		rotted[b] = true
	}
	rep, err := Triage(mc)
	if err != nil {
		return cell, err
	}
	cell.Blocks = rep.Blocks
	cell.Clean = rep.Clean
	cell.Recoverable = rep.Recoverable
	cell.Quarantined = rep.Quarantined

	// Differential check: every non-quarantined block byte-identical to
	// the committed model; every rotted block quarantined.
	blocks := make([]addr.Block, 0, len(golden))
	for b := range golden {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, k int) bool { return blocks[i] < blocks[k] })
	for _, b := range blocks {
		class, ok := rep.Class(b)
		if !ok {
			cell.Mismatches++
			cell.fail(fmt.Sprintf("committed block %#x missing from triage", b.Addr()))
			continue
		}
		if rotted[b] {
			if class != ClassQuarantined {
				cell.MissedDecay++
				cell.fail(fmt.Sprintf("rotted block %#x classed %v, not quarantined", b.Addr(), class))
			}
			continue
		}
		if class == ClassQuarantined {
			// Quarantine without injected rot is a false positive.
			cell.Mismatches++
			cell.fail(fmt.Sprintf("unrotted block %#x quarantined", b.Addr()))
			continue
		}
		if got, ok := rep.Recovered(b); !ok || got != golden[b] {
			cell.Mismatches++
			cell.fail(fmt.Sprintf("block %#x (%v) salvaged wrong plaintext", b.Addr(), class))
		}
	}
	return cell, nil
}

// ExploreHeal runs the full scheme × workload heal grid over a bounded
// worker pool; cells are self-contained and the artifact is
// byte-identical regardless of pool size.
func ExploreHeal(ctx context.Context, opts HealOptions) (*HealMatrix, error) {
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
	results, err := runner.Map(ctx, opts.Workers, cells, func(_ context.Context, _ int, c cellKey) (HealCell, error) {
		return RunHealCell(c.scheme, c.wl, opts)
	})
	if err != nil {
		return nil, err
	}
	return &HealMatrix{
		Ops:           opts.Ops,
		Seed:          opts.Seed,
		WriteFailRate: opts.WriteFailRate,
		TornRate:      opts.TornRate,
		RotRate:       opts.RotRate,
		BudgetEntries: opts.BudgetEntries,
		Cells:         results,
	}, nil
}
