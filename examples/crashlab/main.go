// crashlab: a guided tour of what SecPB protects against.
//
// It demonstrates, on real simulated state:
//
//  1. the recoverability gap of Figure 1(b) — a persistent hierarchy
//     without SecPB corrupts its PM image on power loss;
//
//  2. a correct SecPB crash drain for every scheme, with the battery
//     doing progressively more tuple work the lazier the scheme;
//
//  3. the four attacks on the post-crash image (data tamper, MAC
//     tamper, counter tamper, rollback), all detected.
//
//     go run ./examples/crashlab
package main

import (
	"fmt"
	"log"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/recovery"
	"secpb/internal/workload"
)

func runTo(scheme config.Scheme, ops uint64) *engine.Engine {
	cfg := config.Default().WithScheme(scheme)
	prof, err := workload.ByName("povray")
	if err != nil {
		log.Fatal(err)
	}
	eng, err := engine.New(cfg, prof, []byte("crashlab"))
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 42, ops)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.RunBatch(gen); err != nil {
		log.Fatal(err)
	}
	return eng
}

func main() {
	fmt.Println("== 1. The recoverability gap (no SecPB coordination) ==")
	eng := runTo(config.SchemeCOBCM, 20_000)
	rep, err := recovery.GapCrash(eng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(rep)
	fmt.Println("   -> data persisted on-chip, security metadata lost at the MC:")
	fmt.Println("      recovery fails integrity verification. This is the gap SecPB closes.")

	fmt.Println("\n== 2. Correct crash drains across the design spectrum ==")
	for _, scheme := range config.SecPBSchemes() {
		eng := runTo(scheme, 20_000)
		resident := eng.SecPB().Len()
		obs, err := recovery.Crash(eng, recovery.Blocking, recovery.PowerLoss)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s drained %2d entries in %6d battery cycles (%3d hashes, %2d AES ops) — %s\n",
			scheme, resident, obs.DrainCycles,
			obs.Report.DrainCost.Hashes, obs.Report.DrainCost.AESOps,
			map[bool]string{true: "clean"}[obs.Report.Clean()])
		fmt.Printf("        sec-sync gap work: %v\n", recovery.SchemeDrainWork(scheme))
	}

	fmt.Println("\n== 3. Attacks on the post-crash PM image ==")
	for _, attack := range recovery.Attacks() {
		eng := runTo(config.SchemeCOBCM, 20_000)
		victims := eng.Controller().PM().Blocks()
		if len(victims) == 0 {
			log.Fatal("nothing persisted")
		}
		detected, err := recovery.RunAttack(eng, attack, victims[0])
		if err != nil {
			log.Fatal(err)
		}
		status := "DETECTED"
		if !detected {
			status = "MISSED (security failure!)"
		}
		fmt.Printf("%-15s -> %s\n", attack, status)
	}
}
