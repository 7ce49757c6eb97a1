package recovery

import (
	"fmt"

	"secpb/internal/config"
	"secpb/internal/engine"
)

// Policy is what the system does with the crash observer while the
// draining and sec-sync gaps are being closed (Section III.B): block it
// entirely, or let it see a "not yet consistent" warning.
type Policy int

const (
	// Blocking prevents the observer from seeing any state until the
	// persistent image is crash consistent.
	Blocking Policy = iota
	// Warning exposes a warning flag the observer must poll before
	// trusting the state.
	Warning
)

// String names the policy.
func (p Policy) String() string {
	if p == Blocking {
		return "blocking"
	}
	return "warning"
}

// CrashKind distinguishes crash causes. Both whole-system events and
// detected application crashes (segfault, divide by zero, debugger
// single-step) trigger the drain; per the paper's choice we implement
// the drain-all policy, so the two kinds differ only in reporting.
type CrashKind int

const (
	// PowerLoss is a whole-system power failure (battery takes over).
	PowerLoss CrashKind = iota
	// AppCrash is a detected application crash (drain-all policy:
	// every SecPB entry drains regardless of owning process).
	AppCrash
)

// String names the crash kind.
func (k CrashKind) String() string {
	if k == PowerLoss {
		return "power-loss"
	}
	return "app-crash"
}

// Observation is the observer's view of the post-crash system.
type Observation struct {
	Policy      Policy
	Kind        CrashKind
	CrashCycle  uint64 // when the crash was detected
	ReadyCycle  uint64 // when the image became crash consistent
	DrainCycles uint64 // battery time closing draining + sec-sync gaps
	Report      Report
}

// ConsistentAt reports whether the observer may trust the state when
// querying at the given cycle. Under Blocking the query itself stalls
// until ReadyCycle, so it always returns true along with the cycle the
// answer became available; under Warning it returns false before
// ReadyCycle.
func (o Observation) ConsistentAt(cycle uint64) (ok bool, availableAt uint64) {
	if o.Policy == Blocking {
		if cycle < o.ReadyCycle {
			return true, o.ReadyCycle
		}
		return true, cycle
	}
	return cycle >= o.ReadyCycle, cycle
}

// DrainTiming converts a crash drain's Cost into battery-powered cycles
// using the same pipelined-MC intervals as background draining.
func DrainTiming(t engine.Timing, rep Report) uint64 {
	c := rep.DrainCost
	return uint64(rep.EntriesDrained)*t.DrainBase +
		uint64(c.Hashes)*t.DrainHashII +
		uint64(c.AESOps)*t.DrainAESII +
		uint64(c.PMDataWrites+c.PMMetaWrites)*t.DrainPMWrite +
		uint64(c.PMReads)*t.DrainPMRead
}

// Crash performs the full crash procedure on the engine under the given
// policy and kind: battery drain, tuple completion, verification, and
// observer bookkeeping.
func Crash(e *engine.Engine, p Policy, k CrashKind) (Observation, error) {
	obs := Observation{Policy: p, Kind: k, CrashCycle: e.Now()}
	rep, err := CrashAndRecover(e)
	if err != nil {
		return obs, err
	}
	obs.Report = rep
	obs.DrainCycles = DrainTiming(engine.DefaultTiming(), rep)
	obs.ReadyCycle = obs.CrashCycle + obs.DrainCycles
	if !rep.Clean() {
		return obs, fmt.Errorf("recovery: %s crash under %v left corrupt state: %s", k, e.Config().Scheme, rep.FirstBad)
	}
	return obs, nil
}

// SchemeDrainWork returns, for documentation and the harness, which
// tuple elements the battery must still generate at crash time under a
// scheme — the sec-sync gap contents.
func SchemeDrainWork(s config.Scheme) []string {
	e := s.Early()
	var work []string
	if !e.Counter {
		work = append(work, "counter fetch+increment")
	}
	if !e.OTP {
		work = append(work, "OTP generation")
	}
	if !e.Ciphertext {
		work = append(work, "ciphertext XOR")
	}
	if !e.MAC {
		work = append(work, "MAC computation")
	}
	if !e.BMT {
		work = append(work, "BMT leaf-to-root update")
	}
	if len(work) == 0 {
		work = []string{"none (sec-sync gap fully closed at store time)"}
	}
	return work
}
