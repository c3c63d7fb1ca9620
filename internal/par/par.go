// Package par provides the bounded worker-pool primitive behind the
// repository's one level of parallelism, the cell: sweep cells, the
// multi-cell drivers (HeadlinesContext, CorralScalingContext, Fig. 15)
// and the daemon's evaluation slots. Everything below a cell — routing,
// simulation, noise estimation — runs serially. The package is
// deliberately tiny: a deterministic parallel-for with errgroup-style
// first-error aggregation and context cancellation, with no external
// dependencies.
//
// Callers make results deterministic by writing into index-addressed
// slots: ForEachCtx guarantees every index in [0, n) is visited exactly
// once (unless cancelled), but promises nothing about visiting order, so
// any ordering must come from the caller's index→slot mapping, never from
// completion order.
//
// Every task runs under recover(): a panicking task becomes a *PanicError
// carrying the task index and the captured stack, so one faulty sweep cell
// fails as an ordinary error instead of killing the whole process — the
// same isolation discipline cache.Do applies to its fill functions. A
// long-running evaluation service cannot afford a single bad cell taking
// down the fleet of in-flight results.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError is the error a panicking task is converted into: the pool
// recovers the panic, records which task blew up and where, and reports it
// through the normal error path. Index is the task index passed to fn,
// Value the recovered panic value, and Stack the goroutine stack captured
// at recovery time (the panic site, not the pool).
type PanicError struct {
	Index int
	Value any
	Stack []byte
}

// Error implements error. The stack is kept out of the one-line message
// (it is available on the struct for loggers that want it).
func (e *PanicError) Error() string {
	return fmt.Sprintf("par: task %d panicked: %v", e.Index, e.Value)
}

// Resolve maps a Parallelism knob to a concrete worker count:
// 0 means "auto" (runtime.GOMAXPROCS), anything below 1 clamps to serial.
func Resolve(parallelism int) int {
	if parallelism == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if parallelism < 1 {
		return 1
	}
	return parallelism
}

// Call runs fn(i) with the pools' panic isolation: a panic is recovered
// into a *PanicError for index i, so the caller's other tasks are
// unaffected. Exported for dispatch loops of their own, such as the sweep
// engine's ordered stream.
func Call(fn func(i int) error, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// ForEachCtx invokes fn(i) for every i in [0, n) on up to `parallelism`
// goroutines (after Resolve). A failing task cancels the dispatch of
// tasks that have not started; in-flight tasks run to completion. Once
// ctx is done, no new task starts.
//
// Error semantics: a task failure (including a recovered panic, reported
// as *PanicError) is returned as the lowest-index error observed. A pure
// context cancellation — ctx done with no task having failed — returns
// ctx.Err() directly, never attributed to a task index, so callers can
// rely on errors.Is(err, context.Canceled/DeadlineExceeded) to mean "the
// run was cancelled", not "some task happened to fail with that". When
// both occur, the task failure wins: it is the more specific diagnosis.
func ForEachCtx(ctx context.Context, n, parallelism int, fn func(i int) error) error {
	workers := Resolve(parallelism)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := Call(fn, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next      atomic.Int64
		stop      atomic.Bool
		cancelled atomic.Bool
		mu        sync.Mutex
		bestIdx   int
		bestErr   error
		wg        sync.WaitGroup
	)
	next.Store(-1)
	// On failure the lowest-index error among those observed is returned,
	// matching the serial loop whenever the racing failures overlap. (Tasks
	// never dispatched after the stop can't report, so a still-lower-index
	// failure may go unseen — the cost of stopping early.)
	fail := func(i int, err error) {
		mu.Lock()
		if bestErr == nil || i < bestIdx {
			bestIdx, bestErr = i, err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					// Pure cancellation is not task i's failure: record it
					// out of band and let any real task error take priority.
					cancelled.Store(true)
					stop.Store(true)
					return
				}
				if err := Call(fn, i); err != nil {
					fail(i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if bestErr != nil {
		return bestErr
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
