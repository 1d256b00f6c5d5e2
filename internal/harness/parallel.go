package harness

import (
	"context"
	"runtime"
	"sync"
)

// ParallelDo runs total independent jobs, indexed 0..total-1, on a bounded
// worker pool of parallelism goroutines (zero or negative: all CPUs). It
// is the worker-pool core shared by the cell engine (Engine.RunCells) and
// the differential fuzzing campaign (internal/diffsim).
//
// Semantics match the evaluation engine's: the first job error cancels the
// remaining work (fail-fast; in-flight jobs finish, queued jobs are
// abandoned). Among the jobs that actually ran, the failure with the
// lowest index is reported — a deterministic tie-break when several
// in-flight jobs fail together. It is not a global guarantee: cancellation
// can abandon a lower-index job before it ever runs, so which job fails
// first can still depend on scheduling. A cancelled ctx stops the pool
// promptly and its error is returned when no job failed. fn runs
// concurrently with itself and must be hermetic or do its own locking.
func ParallelDo(ctx context.Context, total, parallelism int, fn func(i int) error) error {
	if total <= 0 {
		return ctx.Err()
	}
	workers := parallelism
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > total {
		workers = total
	}

	// Errors land in job-index slots, never appended, so completion order
	// cannot leak into which error is reported.
	errs := make([]error, total)

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if runCtx.Err() != nil {
					continue // drain: the pool is being torn down
				}
				if err := fn(i); err != nil {
					errs[i] = err
					cancel() // fail fast: stop scheduling new work
				}
			}
		}()
	}
feed:
	for i := 0; i < total; i++ {
		select {
		case jobs <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(jobs)
	wg.Wait()

	// Error precedence: a job failure beats the cancellation it caused.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
