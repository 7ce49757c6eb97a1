package secpb

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/energy"
	"secpb/internal/recovery"
	"secpb/internal/trace"
	"secpb/internal/workload"
)

// Attack identifies a post-crash tampering experiment against the PM
// image.
type Attack = recovery.Attack

// The implemented attack classes. Data, MAC and counter tampering are
// caught by the per-block MAC; rollback of a mutually consistent
// (data, counter, MAC) triple is caught only by the BMT and its on-chip
// root register.
const (
	AttackData     = recovery.AttackData
	AttackMAC      = recovery.AttackMAC
	AttackCounter  = recovery.AttackCounter
	AttackRollback = recovery.AttackRollback
)

// Attacks lists all implemented attacks.
func Attacks() []Attack { return recovery.Attacks() }

// SimulateGapCrash crashes the machine the way a persistent hierarchy
// WITHOUT SecPB coordination would (the recoverability gap of the
// paper's Figure 1b): buffered data reaches PM, but the counter, MAC
// and BMT updates are lost with the volatile metadata caches. The
// returned report is expected to be not Clean — that corruption is the
// problem SecPB exists to solve.
func (m *Machine) SimulateGapCrash() (CrashReport, error) {
	if m.crashed {
		return CrashReport{}, fmt.Errorf("secpb: machine already crashed")
	}
	m.crashed = true
	rep, err := recovery.GapCrash(m.eng)
	if err != nil {
		return CrashReport{}, err
	}
	return CrashReport{
		EntriesDrained: rep.EntriesDrained,
		BlocksVerified: rep.BlocksChecked,
		Clean:          rep.Clean(),
		Detail:         rep.FirstBad,
	}, nil
}

// AttackAndDetect crash-drains the machine cleanly, applies the attack
// to the persisted image at the block containing byteAddr, and reports
// whether recovery detected the tampering. A false return with nil
// error is a security failure.
func (m *Machine) AttackAndDetect(a Attack, byteAddr uint64) (detected bool, err error) {
	if m.crashed {
		return false, fmt.Errorf("secpb: machine already crashed")
	}
	m.crashed = true
	return recovery.RunAttack(m.eng, a, addr.BlockOf(byteAddr))
}

// StressReport summarizes a live battery-drain attack: how full the
// adversary got the SecPB and what a crash at that instant would have
// demanded from the battery.
type StressReport struct {
	Ops         uint64 // attack operations executed
	PeakPending int    // high-water SecPB occupancy reached
	Capacity    int    // configured SecPB entries
	Saturated   bool   // PeakPending == Capacity
	// BackpressureCycles is how long the attack held the core stalled
	// on a full SecPB — the occupancy-attack signature.
	BackpressureCycles uint64
	// WorstDrainJ is the battery energy a power failure at peak
	// occupancy would have drawn; ProvisionedJ is the capacity-sized
	// budget from the paper's Table V model. WorstDrainJ can never
	// exceed ProvisionedJ — the attack shows how tight the bound is.
	WorstDrainJ  float64
	ProvisionedJ float64
}

// StressBattery runs the battery-drain pessimizer (the adv-battery zoo
// workload: zero-gap trains of distinct-block stores that defeat
// coalescing) against this machine for nops operations — a live
// persistence-based attack in the sense of Yao & Venkataramani, unlike
// the post-crash tampering attacks above. The machine stays usable
// afterwards. The stream is deterministic in seed.
func (m *Machine) StressBattery(nops, seed uint64) (StressReport, error) {
	if m.crashed {
		return StressReport{}, fmt.Errorf("secpb: machine has crashed")
	}
	prof, err := workload.ByName("adv-battery")
	if err != nil {
		return StressReport{}, err
	}
	gen, err := workload.NewGenerator(prof, seed, nops)
	if err != nil {
		return StressReport{}, err
	}
	before := m.eng.Collect()
	b := trace.NewBatch(trace.DefaultBatchCap)
	for gen.NextBatch(b) {
		if err := m.eng.StepBatch(b); err != nil {
			return StressReport{}, err
		}
	}
	after := m.eng.Collect()
	cfg := m.eng.Config()
	rep := StressReport{
		Ops:                nops,
		PeakPending:        after.PeakOccupancy,
		Capacity:           cfg.SecPBEntries,
		BackpressureCycles: after.Backpressure - before.Backpressure,
	}
	rep.Saturated = rep.PeakPending == rep.Capacity
	perEntry, err := energy.PerEntryDrainJ(m.Scheme(), cfg.BMTLevels)
	if err != nil {
		return StressReport{}, err
	}
	provisioned, err := energy.SecPBEnergy(m.Scheme(), cfg.SecPBEntries, cfg.BMTLevels)
	if err != nil {
		return StressReport{}, err
	}
	rep.WorstDrainJ = float64(rep.PeakPending) * perEntry
	rep.ProvisionedJ = provisioned
	return rep, nil
}
