//go:build !race

package mem

import (
	"runtime"
	"testing"

	"secpb/internal/config"
)

// TestCacheFootprint pins the default hierarchy's allocation at one
// 8-byte word per modeled line plus a 2-byte valid count per set, with
// 1 KiB of slack for the structs themselves. Measured as the least
// TotalAlloc delta over a few builds, so a stray runtime allocation
// cannot fail it.
func TestCacheFootprint(t *testing.T) {
	cfg := config.Default()
	var lines, sets uint64
	for _, cc := range []config.CacheConfig{cfg.L1, cfg.L2, cfg.L3} {
		lines += uint64(cc.SizeBytes / cc.BlockBytes)
		sets += uint64(cc.Sets())
	}
	limit := 8*lines + 2*sets + 1024
	var least uint64
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		hierSink = NewHierarchy(cfg)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; i == 0 || got < least {
			least = got
		}
	}
	if least > limit {
		t.Fatalf("NewHierarchy(config.Default()) allocates %d B, limit %d B (%d lines, %d sets)", least, limit, lines, sets)
	}
}
