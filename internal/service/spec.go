// Package service turns the batch simulator into a long-running
// trace-streaming service: clients create named sessions and stream
// SPB2 trace segments into them; each session steps the same engine
// RunRecorded drives, appends accepted segments to a sealed on-disk
// log, and periodically checkpoints its cursor state as a sealed record
// published by seal.WriteAtomic, so a killed-and-restarted server
// resumes every session from its last checkpoint and produces results
// byte-identical to an uninterrupted run. Robustness
// is the contract: bounded ingest queues with backpressure, admission
// control with a global session cap, idempotent segment upload keyed
// by segment ordinal (at-least-once delivery is safe), and typed
// rejection of anything corrupt — a tampered checkpoint refuses resume
// and falls back to a clean session, never a partial restore.
package service

import (
	"fmt"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/workload"
)

// engineKey is the memory-encryption key every session engine uses —
// the same fixed experiment key engine.RunBenchmark and RunRecorded
// use, so a streamed session is byte-identical to a batch replay of
// the same trace.
var engineKey = engine.ExperimentKey

// Spec is the client-visible session parameterization. The simulated
// configuration is rebuilt deterministically from the spec (the same
// way crashsim derives cell configs), so a checkpoint only needs to
// seal the spec, never a serialized config.
type Spec struct {
	Name    string `json:"name"`
	Scheme  string `json:"scheme"`
	Bench   string `json:"bench"`
	Seed    uint64 `json:"seed"`
	Entries int    `json:"secpb_entries,omitempty"` // 0 = config default
}

// Validate checks the spec is well formed and resolvable.
func (s Spec) Validate() error {
	if err := ValidateName(s.Name); err != nil {
		return err
	}
	if _, err := config.SchemeByName(s.Scheme); err != nil {
		return err
	}
	if _, err := workload.ByName(s.Bench); err != nil {
		return err
	}
	if s.Entries < 0 {
		return fmt.Errorf("service: negative secpb_entries %d", s.Entries)
	}
	return nil
}

// ValidateName rejects session names that are empty, oversized, or
// not filesystem-safe (names become directory names under the data
// dir, so the alphabet is deliberately strict).
func ValidateName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("service: session name must be 1..64 characters")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			return fmt.Errorf("service: session name %q contains %q (want [a-zA-Z0-9._-])", name, c)
		}
	}
	if name[0] == '.' {
		return fmt.Errorf("service: session name must not start with '.'")
	}
	return nil
}

// Build rebuilds the simulated configuration and workload profile the
// spec names. Deterministic: the same spec always yields the same
// config, which is what makes a resume-by-replay byte-identical.
func (s Spec) Build() (config.Config, workload.Profile, error) {
	scheme, err := config.SchemeByName(s.Scheme)
	if err != nil {
		return config.Config{}, workload.Profile{}, err
	}
	prof, err := workload.ByName(s.Bench)
	if err != nil {
		return config.Config{}, workload.Profile{}, err
	}
	cfg := config.Default().WithScheme(scheme)
	cfg.Seed = s.Seed
	if s.Entries > 0 {
		cfg = cfg.WithSecPBEntries(s.Entries)
	}
	return cfg, prof, nil
}

// equal reports whether two specs request the identical session (used
// to make session creation idempotent for crash-retrying clients).
func (s Spec) equal(o Spec) bool { return s == o }
