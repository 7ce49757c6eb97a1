// Command secpb-sim runs a single simulation: one benchmark profile (or
// a recorded trace file, SPB1 or SPB2) under one persistence scheme,
// printing the timing results and memory-system statistics.
//
// Usage:
//
//	secpb-sim -bench gamess -scheme cobcm -ops 250000
//	secpb-sim -trace run.spb2 -scheme nogap
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			os.Exit(0)
		}
		fmt.Fprintf(os.Stderr, "secpb-sim: %v\n", err)
		var u usageError
		if errors.As(err, &u) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad command line (exit status 2); every other error
// is a failed run (exit status 1).
type usageError struct{ error }

func (u usageError) Unwrap() error { return u.error }

// run parses args, simulates, and prints the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("secpb-sim", flag.ContinueOnError)
	var (
		bench     = fs.String("bench", "gcc", "benchmark profile name")
		schemeStr = fs.String("scheme", "cobcm", "persistence scheme")
		ops       = fs.Uint64("ops", 250_000, "memory operations to simulate")
		entries   = fs.Int("secpb", 32, "SecPB entries")
		tracePath = fs.String("trace", "", "replay a recorded trace file (SPB1 or SPB2) instead of a synthetic benchmark")
		seed      = fs.Uint64("seed", 0, "workload seed (0 = config default)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	scheme, err := config.SchemeByName(*schemeStr)
	if err != nil {
		return usageError{err}
	}
	cfg := config.Default().WithScheme(scheme).WithSecPBEntries(*entries)
	if *seed != 0 {
		cfg.Seed = *seed
	}
	prof, err := workload.ByName(*bench)
	if err != nil {
		return usageError{err}
	}

	var src trace.BatchSource
	var file *trace.FileBatchSource
	if *tracePath != "" {
		if file, err = trace.OpenFile(*tracePath); err != nil {
			return fmt.Errorf("reading trace: %w", err)
		}
		defer file.Close()
		src = file
	} else {
		gen, err := workload.NewGenerator(prof, cfg.Seed, *ops)
		if err != nil {
			return err
		}
		src = gen
	}

	eng, err := engine.New(cfg, prof, []byte("secpb-sim"))
	if err != nil {
		return err
	}
	if err := eng.RunBatch(src); err != nil {
		return fmt.Errorf("simulation failed: %w", err)
	}
	if file != nil {
		if err := file.Err(); err != nil {
			return fmt.Errorf("reading trace: %w", err)
		}
	}
	r := eng.Collect()

	fmt.Fprintln(stdout, r)
	fmt.Fprintf(stdout, "  instructions      %d\n", r.Instructions)
	fmt.Fprintf(stdout, "  cycles            %d\n", r.Cycles)
	fmt.Fprintf(stdout, "  IPC               %.3f\n", r.IPC)
	fmt.Fprintf(stdout, "  loads / stores    %d / %d\n", r.Loads, r.Stores)
	fmt.Fprintf(stdout, "  PPTI              %.1f\n", r.PPTI)
	fmt.Fprintf(stdout, "  NWPE              %.2f\n", r.NWPE)
	fmt.Fprintf(stdout, "  SecPB allocations %d\n", r.EntriesAllocated)
	fmt.Fprintf(stdout, "  BMT root updates  %d (early walks: %d)\n", r.BMTRootUpdates, r.EarlyBMTWalks)
	fmt.Fprintf(stdout, "  loads from SecPB  %d\n", r.PBServedLoads)
	fmt.Fprintf(stdout, "  L1 / LLC hit rate %.3f / %.3f\n", r.L1Hit, r.LLCHit)
	fmt.Fprintf(stdout, "  PM reads / writes %d / %d\n", r.PMReads, r.PMWrites)
	fmt.Fprintf(stdout, "  stall cycles      loads %d, store-buffer %d, SecPB backpressure %d\n",
		r.LoadStall, r.SBStall, r.Backpressure)
	if r.Reencryptions > 0 {
		fmt.Fprintf(stdout, "  page re-encrypts  %d\n", r.Reencryptions)
	}
	return nil
}
