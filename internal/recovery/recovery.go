// Package recovery implements the crash-recovery side of SecPB: the
// battery-powered crash drain, post-crash recovery with integrity
// verification, the crash-observer policies (blocking / warning), and an
// attack harness (tampering, rollback, and the recoverability-gap
// failure the paper motivates with Figure 1b).
//
// The central correctness statement (the PLP invariants of Section
// III.A) is checked end-to-end: after a crash at any point, recovery
// must decrypt every persisted block to exactly the plaintext the crash
// observer is allowed to see (the persist-order prefix), and integrity
// verification must succeed — or, if the crash drain is broken or the
// PM image tampered with, must fail loudly.
package recovery

import (
	"fmt"

	"secpb/internal/addr"
	"secpb/internal/engine"
)

// CrashAndRecover performs the full correct procedure on a crashed
// engine: battery-drain every SecPB entry (completing memory tuples per
// the scheme's laziness), then recover: check the drained image against
// the program's plaintext view of every block the crash observer is
// entitled to see (Verifier.Verify).
func CrashAndRecover(e *engine.Engine) (Report, error) {
	var rep Report
	if spb := e.SecPB(); spb != nil {
		n, cost, err := spb.CrashDrain()
		if err != nil {
			return rep, fmt.Errorf("recovery: crash drain: %w", err)
		}
		rep.EntriesDrained = n
		rep.DrainCost = cost
	}
	return rep, new(Verifier).Verify(e.Controller(), e.Memory(), &rep)
}

// GapCrash simulates the recoverability gap of Figure 1(b): a persistent
// hierarchy whose point of persistency moved on-chip (stores persisted
// on entry to the buffer) but whose security point of persistency stayed
// at the memory controller with no crash coordination. On power loss
// the buffered data blocks reach PM — encrypted under the counters the
// MC's volatile metadata caches had already advanced — but the counter,
// MAC, and BMT updates themselves are lost with the volatile caches.
//
// Recovery after GapCrash demonstrates the failure the paper closes:
// stale counters decrypt to garbage and integrity verification fails.
func GapCrash(e *engine.Engine) (Report, error) {
	var rep Report
	spb := e.SecPB()
	if spb == nil {
		return rep, fmt.Errorf("recovery: GapCrash requires a persist buffer")
	}
	mc := e.Controller()
	if !mc.Secure() {
		return rep, fmt.Errorf("recovery: GapCrash requires a secure controller")
	}
	for {
		entry := spb.PopOldest()
		if entry == nil {
			break
		}
		rep.EntriesDrained++
		// The in-flight counter value (storage counter + 1) was only
		// in the volatile metadata cache; the data reaches PM under it
		// but the metadata stores never learn.
		staleCtr := mc.Counters().Value(entry.Block) + 1
		ct := mc.Engine().Encrypt(&entry.Data, entry.Block.Addr(), staleCtr)
		mc.PM().Write(entry.Block, ct)
	}
	return rep, new(Verifier).Verify(mc, e.Memory(), &rep)
}

// Attack identifies a post-crash tampering experiment.
type Attack int

const (
	// AttackData flips a bit in a persisted data block.
	AttackData Attack = iota
	// AttackMAC flips a bit in a stored MAC.
	AttackMAC
	// AttackCounter overwrites a stored minor counter.
	AttackCounter
	// AttackRollback restores an old (data, counter, MAC) triple that
	// was once valid — the replay attack only the BMT can catch.
	AttackRollback
)

// String names the attack.
func (a Attack) String() string {
	switch a {
	case AttackData:
		return "data-tamper"
	case AttackMAC:
		return "mac-tamper"
	case AttackCounter:
		return "counter-tamper"
	case AttackRollback:
		return "rollback"
	default:
		return fmt.Sprintf("attack(%d)", int(a))
	}
}

// Attacks lists all implemented attacks.
func Attacks() []Attack {
	return []Attack{AttackData, AttackMAC, AttackCounter, AttackRollback}
}

// RunAttack crash-drains the engine cleanly, applies the attack to the
// persisted image at the given block, and reports whether recovery
// detected it. A nil error with detected=false means the attack went
// unnoticed — a security failure the tests assert never happens.
func RunAttack(e *engine.Engine, a Attack, victim addr.Block) (detected bool, err error) {
	if spb := e.SecPB(); spb != nil {
		if _, _, err := spb.CrashDrain(); err != nil {
			return false, err
		}
	}
	mc := e.Controller()
	if _, ok := mc.PM().Peek(victim); !ok {
		return false, fmt.Errorf("recovery: victim block %#x not persisted", victim.Addr())
	}

	switch a {
	case AttackData:
		if err := mc.PM().Tamper(victim, 7); err != nil {
			return false, err
		}
	case AttackMAC:
		if err := mc.MACs().Tamper(victim, 3); err != nil {
			return false, err
		}
	case AttackCounter:
		cur := mc.Counters().Value(victim)
		if err := mc.Counters().Tamper(victim, uint8(cur)+1); err != nil {
			return false, err
		}
	case AttackRollback:
		// Build a consistent old triple: re-persist the block to move
		// it forward, then restore the captured old state.
		oldCT, _ := mc.PM().Peek(victim)
		oldTag, ok := mc.MACs().Get(victim)
		if !ok {
			return false, fmt.Errorf("recovery: victim has no MAC")
		}
		oldMinor := uint8(mc.Counters().Value(victim))
		plain, _ := e.MemoryBlock(victim)
		if _, err := mc.PersistBlock(victim, &plain, nil); err != nil {
			return false, err
		}
		mc.PM().Write(victim, oldCT)
		mc.MACs().Put(victim, oldTag)
		if err := mc.Counters().Tamper(victim, oldMinor); err != nil {
			return false, err
		}
	default:
		return false, fmt.Errorf("recovery: unknown attack %d", a)
	}

	_, _, ferr := mc.FetchBlock(victim)
	return ferr != nil, nil
}
