// multicore: the promoted multi-core simulation path — a 4-core socket
// where each core owns a private memory-channel shard and SecPB, a
// MESI-coherent shared region arbitrates cross-core traffic (entry
// migration on remote writes, flush-to-PM on remote reads, no
// replication ever), and cores step in parallel between deterministic
// drain-epoch barriers. A whole-socket power loss then drains every
// buffer on battery, and the sealed recovery journal shows why the
// cross-core replay order is data, not convention.
//
//	go run ./examples/multicore
package main

import (
	"fmt"
	"log"
	"reflect"

	"secpb/internal/config"
	"secpb/internal/core"
	"secpb/internal/engine"
	"secpb/internal/nvm"
	"secpb/internal/recovery"
	"secpb/internal/workload"
)

func main() {
	const cores = 4
	key := []byte("multicore-example-key")

	// A conflict-heavy shared plan: a small hot region with a high
	// redirect rate, so the MESI directory sees real contention.
	cfg := config.Default().WithScheme(config.SchemeCOBCM).WithCores(cores)
	cfg.MCSharedBlocks = 8
	cfg.MCSharedPerKilo = 150

	prof, err := workload.ByName("gromacs")
	if err != nil {
		log.Fatal(err)
	}
	sys, err := engine.NewSystem(cfg, prof, key, 5000)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== %d-core socket, %s, 5000 ops/core ==\n", cores, cfg.Scheme)
	if err := sys.Run(); err != nil {
		log.Fatal(err)
	}
	res := sys.Collect()
	if err := res.IntegrityErr(); err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	m := res.MESI
	fmt.Printf("MESI: %d reads / %d writes, %d cold misses, %d upgrades, %d invalidations\n",
		m.Reads, m.Writes, m.ColdMisses, m.Upgrades, m.Invalidations)
	fmt.Printf("      %d migrations (remote write of M line), %d read flushes (remote read of M line)\n",
		m.Migrations, m.ReadFlushes)
	if err := sys.Shared().CheckInvariants(); err != nil {
		log.Fatalf("coherence invariant broken: %v", err)
	}
	fmt.Println("coherence invariants hold: every Modified line has exactly one SecPB entry, never replicated")

	// Snapshot the socket as a crash would find it: per-shard media
	// images plus every buffer's late-work journal, sealed in the
	// canonical drain order — ascending core over private SecPBs, then
	// ascending core over the shared-region SecPBs.
	restore := func(mc *nvm.Controller) *nvm.Controller {
		r, err := nvm.Restore(mc.Config(), key, mc.PM().Snapshot(),
			mc.Counters().Snapshot(), mc.MACs().Snapshot(), mc.Tree().Snapshot())
		if err != nil {
			log.Fatal(err)
		}
		return r
	}
	capture := func(spb *core.SecPB) *recovery.Journal {
		j := new(recovery.Journal)
		j.Capture(spb)
		return j
	}
	var j recovery.SystemJournal
	j.Reset()
	shards := make([]*nvm.Controller, cores)
	for c := 0; c < cores; c++ {
		shards[c] = restore(sys.Core(c).Controller())
		j.Add(c, shards[c], capture(sys.Core(c).SecPB()))
	}
	sharedMC := restore(sys.Shared().Controller())
	for c := 0; c < cores; c++ {
		j.Add(c, sharedMC, capture(sys.Shared().SecPB(c)))
	}

	// Whole-socket power loss on the live system: the battery funds a
	// FIFO drain of all 2N buffers.
	fmt.Println("\n== power loss: battery drains every core's buffers ==")
	n, err := sys.CrashDrainAll()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("drained %d entries across %d private + %d shared SecPBs\n", n, cores, cores)

	// Replay the same late work on the restored shards through the
	// sealed journal: the canonical order drains, any other order is
	// rejected before a single entry touches media.
	fmt.Println("\n== sealed recovery journal: replay order is data ==")
	if _, err := j.DrainPart(1); err != nil {
		fmt.Printf("draining core 1 before core 0: rejected (%v)\n", err)
	} else {
		log.Fatal("journal accepted an out-of-order drain")
	}
	cost, err := j.Drain(nil)
	if err != nil {
		log.Fatal(err)
	}
	for c := 0; c < cores; c++ {
		if !reflect.DeepEqual(shards[c].PM().Snapshot(), sys.Core(c).Controller().PM().Snapshot()) {
			log.Fatalf("core %d: recovered image differs from the live crash drain", c)
		}
	}
	if !reflect.DeepEqual(sharedMC.PM().Snapshot(), sys.Shared().Controller().PM().Snapshot()) {
		log.Fatal("shared region: recovered image differs from the live crash drain")
	}
	fmt.Printf("canonical order replayed: %d data + %d metadata PM writes; recovered shards match the live post-crash image\n",
		cost.PMDataWrites, cost.PMMetaWrites)
	var rep recovery.Report
	if err := new(recovery.Verifier).Verify(sys.Shared().Controller(), sys.Shared().Memory(), &rep); err != nil {
		log.Fatal(err)
	}
	if !rep.Clean() {
		log.Fatalf("shared region: %s", rep)
	}
	fmt.Printf("shared region audited clean; its %d blocks decrypt to the coherent view\n", rep.BlocksChecked)
}
