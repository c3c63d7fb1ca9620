package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestResolve(t *testing.T) {
	if got := Resolve(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Resolve(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if Resolve(-3) != 1 || Resolve(1) != 1 || Resolve(7) != 7 {
		t.Error("Resolve clamping wrong")
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		const n = 100
		counts := make([]atomic.Int64, n)
		if err := ForEachCtx(context.Background(), n, workers, func(i int) error {
			counts[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachFirstError(t *testing.T) {
	wantErr := errors.New("boom")
	err := ForEachCtx(context.Background(), 50, 4, func(i int) error {
		if i == 7 {
			return wantErr
		}
		return nil
	})
	if !errors.Is(err, wantErr) {
		t.Fatalf("got %v, want %v", err, wantErr)
	}
}

func TestForEachErrorStopsDispatch(t *testing.T) {
	var ran atomic.Int64
	err := ForEachCtx(context.Background(), 1_000_000, 2, func(i int) error {
		ran.Add(1)
		return fmt.Errorf("fail at %d", i)
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := ran.Load(); n > 10 {
		t.Errorf("dispatch kept going after failure: %d tasks ran", n)
	}
}

func TestForEachCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEachCtx(ctx, 1000, 4, func(i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

func TestForEachZeroTasks(t *testing.T) {
	if err := ForEachCtx(context.Background(), 0, 4, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

// TestPanicBecomesError pins the panic-isolation contract: a panicking
// task surfaces as a *PanicError carrying the task index and a stack, on
// both the serial and pooled paths, and never crashes the process.
func TestPanicBecomesError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), 20, workers, func(i int) error {
			if i == 3 {
				panic("cell exploded")
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v, want *PanicError", workers, err)
		}
		if pe.Index != 3 {
			t.Errorf("workers=%d: panic index %d, want 3", workers, pe.Index)
		}
		if pe.Value != "cell exploded" {
			t.Errorf("workers=%d: panic value %v", workers, pe.Value)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("workers=%d: no stack captured", workers)
		}
		if got := pe.Error(); got != "par: task 3 panicked: cell exploded" {
			t.Errorf("workers=%d: message %q", workers, got)
		}
	}
}

// TestPanicOnlyFailsOneTask: with isolation, the panicking task reports
// while every task dispatched before the stop still completes normally.
func TestPanicOnlyFailsOneTask(t *testing.T) {
	var ok atomic.Int64
	err := ForEachCtx(context.Background(), 8, 8, func(i int) error {
		if i == 0 {
			// Wait for a sibling to finish first so the stop that follows
			// the panic cannot be the reason nothing else ran.
			for ok.Load() == 0 {
				runtime.Gosched()
			}
			panic(fmt.Sprintf("boom %d", i))
		}
		ok.Add(1)
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want *PanicError", err)
	}
	if ok.Load() == 0 {
		t.Error("no sibling task completed — panic took the pool down")
	}
}

// TestPureCancellationReturnsCtxErrDirectly: a cancellation with no failing
// task must return ctx.Err() itself — not a task-attributed wrapper — so
// errors.Is(err, context.Canceled) reliably means "cancelled".
func TestPureCancellationReturnsCtxErrDirectly(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := ForEachCtx(ctx, 1000, workers, func(i int) error {
			if ran.Add(1) == 3 {
				cancel()
			}
			return nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers=%d: got %v (%T), want context.Canceled itself", workers, err, err)
		}
	}
}

// TestTaskErrorBeatsCancellation: when a real task failure and the
// cancellation race, the task failure is the more specific diagnosis and
// must win.
func TestTaskErrorBeatsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	boom := errors.New("boom")
	err := ForEachCtx(ctx, 100, 4, func(i int) error {
		if i == 5 {
			cancel()
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the task error to win over cancellation", err)
	}
}
