package recovery

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"secpb/internal/addr"
	"secpb/internal/bmt"
	"secpb/internal/config"
	"secpb/internal/crypto"
	"secpb/internal/engine"
	"secpb/internal/meta"
	"secpb/internal/nvm"
	"secpb/internal/workload"
)

// corruptionBase is a pristine post-crash-drain NV image for one scheme,
// built once and cloned per fuzz execution so tampering never leaks
// between iterations.
type corruptionBase struct {
	cfg    config.Config
	key    []byte
	pm     *nvm.PM
	ctrs   *meta.CounterStore
	macs   *meta.MACStore
	tree   *bmt.Tree
	blocks []addr.Block // persisted blocks, address order
}

func (b *corruptionBase) clone() (*nvm.Controller, error) {
	return nvm.Restore(b.cfg, b.key, b.pm.Snapshot(), b.ctrs.Snapshot(), b.macs.Snapshot(), b.tree.Snapshot())
}

var corruptionBases struct {
	once  sync.Once
	bases []*corruptionBase
	err   error
}

func buildCorruptionBases() ([]*corruptionBase, error) {
	prof, err := workload.ByName("gcc")
	if err != nil {
		return nil, err
	}
	key := []byte("corruption-fuzz-key")
	var bases []*corruptionBase
	for _, scheme := range config.SecPBSchemes() {
		cfg := config.Default().WithScheme(scheme)
		cfg.Seed = 0xFACE
		e, err := engine.New(cfg, prof, key)
		if err != nil {
			return nil, err
		}
		gen, err := workload.NewGenerator(prof, cfg.Seed, 2500)
		if err != nil {
			return nil, err
		}
		if err := e.RunBatch(gen); err != nil {
			return nil, err
		}
		rep, err := CrashAndRecover(e)
		if err != nil {
			return nil, err
		}
		if !rep.Clean() {
			return nil, fmt.Errorf("%v base image not clean: %s", scheme, rep)
		}
		mc := e.Controller()
		blocks := mc.PM().Blocks()
		sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
		if len(blocks) == 0 {
			return nil, fmt.Errorf("%v base image has no persisted blocks", scheme)
		}
		bases = append(bases, &corruptionBase{
			cfg:    cfg,
			key:    key,
			pm:     mc.PM().Snapshot(),
			ctrs:   mc.Counters().Snapshot(),
			macs:   mc.MACs().Snapshot(),
			tree:   mc.Tree().Snapshot(),
			blocks: blocks,
		})
	}
	return bases, nil
}

func getCorruptionBases(tb testing.TB) []*corruptionBase {
	corruptionBases.once.Do(func() {
		corruptionBases.bases, corruptionBases.err = buildCorruptionBases()
	})
	if corruptionBases.err != nil {
		tb.Fatal(corruptionBases.err)
	}
	return corruptionBases.bases
}

// FuzzCorruptionDetection is the zero-false-negative property of the
// integrity machinery: flip any single element of the persisted image —
// a ciphertext bit, a MAC bit, a counter value, or a stored BMT node —
// and the full-image audit must flag it. Fuzzed inputs only steer which
// element is corrupted; every execution that reaches the assert has
// genuinely damaged the image first.
func FuzzCorruptionDetection(f *testing.F) {
	getCorruptionBases(f)
	f.Add(uint8(0), uint16(0), uint8(0), uint16(0))
	f.Add(uint8(1), uint16(7), uint8(1), uint16(100))
	f.Add(uint8(2), uint16(31), uint8(2), uint16(3))
	f.Add(uint8(3), uint16(255), uint8(3), uint16(40))
	f.Add(uint8(4), uint16(1000), uint8(3), uint16(511))
	f.Add(uint8(5), uint16(65535), uint8(0), uint16(511))
	f.Fuzz(func(t *testing.T, schemeSel uint8, victimSel uint16, kindSel uint8, bitSel uint16) {
		bases := getCorruptionBases(t)
		base := bases[int(schemeSel)%len(bases)]
		mc, err := base.clone()
		if err != nil {
			t.Fatal(err)
		}
		victim := base.blocks[int(victimSel)%len(base.blocks)]

		var what string
		switch kindSel % 4 {
		case 0:
			bit := int(bitSel) % (addr.BlockBytes * 8)
			if err := mc.PM().Tamper(victim, bit); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("ciphertext bit %d", bit)
		case 1:
			bit := int(bitSel) % (crypto.MACSize * 8)
			if err := mc.MACs().Tamper(victim, bit); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("MAC bit %d", bit)
		case 2:
			// Any nonzero delta mod 256 yields a different minor counter.
			delta := uint8(bitSel%255) + 1
			old := uint8(mc.Counters().Value(victim))
			if err := mc.Counters().Tamper(victim, old+delta); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("counter minor %d -> %d", old, old+delta)
		case 3:
			// Flip one bit of a stored node on the victim page's BMT
			// path. All path nodes of a persisted page are materialized.
			ids := mc.Tree().PathNodeIDs(victim.Page())
			id := ids[int(bitSel)%len(ids)]
			level, idx := int(id>>56), id&((1<<56)-1)
			node, ok := mc.Tree().Node(level, idx)
			if !ok {
				t.Fatalf("path node (%d,%d) of persisted page not materialized", level, idx)
			}
			bit := int(bitSel) % (bmt.DigestSize * 8)
			node[bit/8] ^= 1 << (bit % 8)
			if err := mc.Tree().Tamper(level, idx, node); err != nil {
				t.Fatal(err)
			}
			what = fmt.Sprintf("BMT node (%d,%d) bit %d", level, idx, bit)
		}

		rep, err := AuditImage(mc)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Clean() {
			t.Errorf("%s: %s on block %#x escaped the audit (false negative)",
				base.cfg.Scheme, what, victim.Addr())
		}
	})
}
