// Package par provides the bounded fan-out/fan-in primitive the
// experiment harness and the storage media's bulk calls run on: a fixed
// pool of workers, the calling goroutine among them, consuming an
// indexed job list, with results delivered in input order regardless of
// completion order.
//
// The harness's correctness contract — parallel output bit-identical to
// sequential — holds because every job is a pure function of its input
// (each simulation carries its own derived seed and builds all state from
// scratch), and Map never reorders results. par itself adds no
// randomness and no shared state beyond the synchronization below.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalizes a worker-count request: values below 1 mean "one per
// available CPU" (GOMAXPROCS), and the count is capped at the number of
// jobs by Map/ForEach anyway.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ForEach runs f(0..n-1) on up to workers goroutines, the caller's
// included, and waits for all of them: the caller claims jobs like any
// helper, so a call starts workers-1 goroutines and parks only once its
// own claims run out. If any call fails, the error of the lowest-numbered
// failing job is returned (a deterministic choice, unlike "whichever
// failed first on the wall clock") and jobs not yet started are skipped.
// Jobs already running are not interrupted.
func ForEach(workers, n int, f func(i int) error) error {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if n == 0 {
		return nil
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next    atomic.Int64 // next job index to claim
		failed  atomic.Bool  // stop flag: skip jobs not yet started
		mu      sync.Mutex
		firstI  int = n
		firstEr error
		wg      sync.WaitGroup
	)
	claim := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n || failed.Load() {
				return
			}
			if err := f(i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < firstI {
					firstI, firstEr = i, err
				}
				mu.Unlock()
				return
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()
	return firstEr
}

// Map applies f to every element of in on up to workers goroutines, the
// caller's included (see ForEach), and returns the results in input
// order. On failure it returns the error of the lowest-indexed failing
// job and a nil slice.
func Map[T, R any](workers int, in []T, f func(i int, v T) (R, error)) ([]R, error) {
	out := make([]R, len(in))
	err := ForEach(workers, len(in), func(i int) error {
		r, err := f(i, in[i])
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
