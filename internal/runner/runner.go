// Package runner is a bounded worker pool for fanning out independent
// simulation jobs. Every experiment in the harness is a grid of
// (config, profile) simulations with no shared state; runner executes
// such grids concurrently while keeping the results in deterministic
// input order, so a parallel sweep produces byte-identical artifacts to
// a serial one.
//
// Cancellation is cooperative: the first job error cancels the pool's
// context, queued jobs are abandoned, and Map returns the error of the
// lowest-indexed failing job (deterministic regardless of scheduling).
package runner

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers returns the worker count used when the caller passes
// workers <= 0: the process's GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Map runs fn over every item with at most workers goroutines and
// returns the results in input order. fn receives the item's index so it
// can label work without shared state.
//
// On error, the pool context is cancelled, unstarted jobs above the
// failed index are skipped, and Map returns the error from the
// lowest-indexed failed job after all in-flight jobs finish. Unstarted
// jobs below it still run, so which failure is reported does not depend
// on scheduling. A cancelled ctx yields ctx.Err().
func Map[T, R any](ctx context.Context, workers int, items []T, fn func(ctx context.Context, i int, item T) (R, error)) ([]R, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]R, len(items))
	if len(items) == 0 {
		return results, ctx.Err()
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > len(items) {
		workers = len(items)
	}

	if workers == 1 {
		// Serial fast path: no goroutines, same semantics.
		for i, item := range items {
			if err := ctx.Err(); err != nil {
				return results, err
			}
			r, err := fn(ctx, i, item)
			if err != nil {
				return results, err
			}
			results[i] = r
		}
		return results, nil
	}

	parent := ctx
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // next item index to claim
		mu       sync.Mutex
		firstErr error
		errIdx   = len(items) // index of the lowest-indexed error
		wg       sync.WaitGroup
	)
	fail := func(i int, err error) {
		mu.Lock()
		if i < errIdx {
			errIdx, firstErr = i, err
		}
		mu.Unlock()
		cancel()
	}

	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if err := parent.Err(); err != nil {
					fail(i, err)
					return
				}
				mu.Lock()
				skip := i > errIdx
				mu.Unlock()
				if skip {
					return
				}
				r, err := fn(ctx, i, items[i])
				if err != nil {
					fail(i, err)
					return
				}
				results[i] = r
			}
		}()
	}
	wg.Wait()
	return results, firstErr
}
