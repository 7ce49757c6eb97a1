// Quickstart: simulate a benchmark under two SecPB schemes, compare the
// overheads, then crash the machine and verify recovery.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"secpb/internal/config"
	"secpb/internal/engine"
	"secpb/internal/recovery"
	"secpb/internal/workload"
)

func main() {
	const ops = 40_000
	prof, err := workload.ByName("povray")
	if err != nil {
		log.Fatal(err)
	}

	// 1. Baseline: the insecure battery-backed buffer (BBB).
	base, err := engine.RunBenchmark(config.Default().WithScheme(config.SchemeBBB), prof, ops)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("baseline ", base)

	// 2. Two SecPB design points: fully lazy (COBCM) vs fully eager
	// (NoGap). Both give encrypted, integrity-protected, crash
	// consistent PM; they differ in runtime overhead and battery size.
	for _, scheme := range []config.Scheme{config.SchemeCOBCM, config.SchemeNoGap} {
		res, err := engine.RunBenchmark(config.Default().WithScheme(scheme), prof, ops)
		if err != nil {
			log.Fatal(err)
		}
		slow := float64(res.Cycles)/float64(base.Cycles) - 1
		fmt.Printf("%-9s %v  -> overhead %+.1f%%\n", scheme, res, slow*100)
	}

	// 3. Crash the machine mid-run and recover.
	cfg := config.Default().WithScheme(config.SchemeCOBCM)
	eng, err := engine.New(cfg, prof, []byte("quickstart"))
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewGenerator(prof, 1, ops/2)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.RunBatch(gen); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncrash at cycle %d with %d entries in the SecPB\n", eng.Now(), eng.SecPB().Len())
	obs, err := recovery.Crash(eng, recovery.Blocking, recovery.PowerLoss)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(obs.Report)
	fmt.Printf("battery closed the draining + sec-sync gaps in %d cycles\n", obs.DrainCycles)
}
