// Command secpb-recover demonstrates the crash-recovery side of SecPB:
// it runs a workload to an arbitrary crash point, performs the battery
// drain, recovers, and verifies the persistent image — optionally with
// the broken recoverability-gap drain the paper motivates (Figure 1b)
// or a post-crash attack on the PM image.
//
// Usage:
//
//	secpb-recover -bench povray -scheme cobcm -ops 50000
//	secpb-recover -mode gap        # demonstrate the recoverability gap
//	secpb-recover -mode attack -attack rollback
package main

import (
	"flag"
	"fmt"
	"os"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/recovery"
	"secpb/internal/workload"
)

func main() {
	var (
		bench     = flag.String("bench", "povray", "benchmark profile")
		schemeStr = flag.String("scheme", "cobcm", "persistence scheme")
		ops       = flag.Uint64("ops", 50_000, "operations before the crash")
		mode      = flag.String("mode", "crash", "crash | gap | attack | audit")
		attackStr = flag.String("attack", "rollback", "data-tamper | mac-tamper | counter-tamper | rollback")
		policyStr = flag.String("policy", "blocking", "blocking | warning observer policy")
	)
	flag.Parse()

	scheme, err := config.SchemeByName(*schemeStr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
		os.Exit(2)
	}
	prof, perr := workload.ByName(*bench)
	if perr != nil {
		fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", perr)
		os.Exit(2)
	}

	cfg := config.Default().WithScheme(scheme)
	eng, err := engine.New(cfg, prof, []byte("secpb-recover"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
		os.Exit(1)
	}
	gen, err := workload.NewGenerator(prof, cfg.Seed, *ops)
	if err != nil {
		fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
		os.Exit(1)
	}
	if err := eng.RunBatch(gen); err != nil {
		fmt.Fprintf(os.Stderr, "secpb-recover: run: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("crash point: cycle %d, %d SecPB entries resident, %d blocks written\n",
		eng.Now(), eng.SecPB().Len(), len(eng.Memory()))
	fmt.Printf("sec-sync gap work for %v: %v\n", scheme, recovery.SchemeDrainWork(scheme))

	switch *mode {
	case "crash":
		policy := recovery.Blocking
		if *policyStr == "warning" {
			policy = recovery.Warning
		}
		obs, err := recovery.Crash(eng, policy, recovery.PowerLoss)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(obs.Report)
		fmt.Printf("battery covered %d cycles of draining + sec-sync; state consistent at cycle %d (%s policy)\n",
			obs.DrainCycles, obs.ReadyCycle, obs.Policy)

	case "gap":
		rep, err := recovery.GapCrash(eng)
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
		if rep.Clean() {
			fmt.Println("unexpected: the recoverability gap did not corrupt state")
			os.Exit(1)
		}
		fmt.Println("=> this is the recoverability gap of Figure 1(b): without SecPB,")
		fmt.Println("   post-crash recovery yields wrong plaintext and integrity failures.")

	case "attack":
		var attack recovery.Attack
		okAttack := false
		for _, a := range recovery.Attacks() {
			if a.String() == *attackStr {
				attack, okAttack = a, true
			}
		}
		if !okAttack {
			fmt.Fprintf(os.Stderr, "secpb-recover: unknown attack %q\n", *attackStr)
			os.Exit(2)
		}
		victims := eng.Controller().PM().Blocks()
		if len(victims) == 0 {
			// Make sure something is persisted to attack.
			if _, _, err := eng.SecPB().CrashDrain(); err != nil {
				fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
				os.Exit(1)
			}
			victims = eng.Controller().PM().Blocks()
		}
		detected, err := recovery.RunAttack(eng, attack, victims[0])
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("attack %v on block %#x: detected=%v\n", attack, victims[0].Addr(), detected)
		if !detected {
			fmt.Println("SECURITY FAILURE: attack went undetected")
			os.Exit(1)
		}

	case "audit":
		if _, _, err := eng.SecPB().CrashDrain(); err != nil {
			fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
			os.Exit(1)
		}
		rep, err := recovery.AuditImage(eng.Controller())
		if err != nil {
			fmt.Fprintf(os.Stderr, "secpb-recover: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(rep)
		if !rep.Clean() {
			os.Exit(1)
		}

	default:
		fmt.Fprintf(os.Stderr, "secpb-recover: unknown mode %q\n", *mode)
		os.Exit(2)
	}
}
