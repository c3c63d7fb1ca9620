package experiments

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// collect runs spec.Stream with the in-process evaluation and returns the
// emitted outcomes and Stream's error.
func collect(ctx context.Context, spec SweepSpec) ([]CellOutcome, error) {
	var outs []CellOutcome
	err := spec.Stream(ctx, evaluate, func(o CellOutcome) error {
		outs = append(outs, o)
		return nil
	})
	return outs, err
}

// TestStreamTolerantCancelMarksUnstarted: once ctx is done a tolerant
// stream starts no cell, and still emits every cell in Cells() order, the
// unstarted ones carrying ctx's error.
func TestStreamTolerantCancelMarksUnstarted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	spec := chaosSpec()
	spec.Parallelism = 1
	spec.Tolerant = true
	spec.CellHook = func(ctx context.Context, _ string, _ int, _ string) error {
		if calls.Add(1) == 3 {
			cancel()
			return ctx.Err()
		}
		return nil
	}
	outs, err := collect(ctx, spec)
	if err != nil {
		t.Fatalf("tolerant stream returned %v, want nil", err)
	}
	if n := len(spec.Cells()); len(outs) != n {
		t.Fatalf("emitted %d outcomes, want all %d", len(outs), n)
	}
	for i, o := range outs {
		if o.Index != i {
			t.Fatalf("outcome %d has cell index %d", i, o.Index)
		}
		if failed := o.Err != nil; failed != (i >= 2) {
			t.Errorf("cell %d: err %v", i, o.Err)
		}
		if i >= 2 && !errors.Is(o.Err, context.Canceled) {
			t.Errorf("cell %d failed with %v, want context.Canceled", i, o.Err)
		}
	}
	if n := calls.Load(); n != 3 {
		t.Errorf("%d cells started, want 3 (none after the cancel)", n)
	}
}

// TestStreamFailFastStopsAtFirstFailure: without Tolerant the first
// failing cell in Cells() order is the last outcome emitted and the
// error RunContext reports, serial and parallel alike; a serial run
// starts no cell after it.
func TestStreamFailFastStopsAtFirstFailure(t *testing.T) {
	failing := func(size int, machine string) bool {
		return size == 6 && machine == "Square-Lattice" || size == 4 && machine == "Tree"
	}
	var want string
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		spec := chaosSpec()
		spec.Parallelism = workers
		spec.CellHook = func(_ context.Context, _ string, size int, machine string) error {
			calls.Add(1)
			if failing(size, machine) {
				return errors.New("injected")
			}
			return nil
		}
		outs, err := collect(context.Background(), spec)
		if err != nil {
			t.Fatalf("workers=%d: Stream returned %v; cell failures are outcomes", workers, err)
		}
		if len(outs) != 2 || outs[1].Err == nil || outs[0].Err != nil {
			t.Fatalf("workers=%d: outcomes %+v, want cell 0 then the failing cell 1", workers, outs)
		}
		if workers == 1 && calls.Load() != 2 {
			t.Errorf("serial fail-fast run started %d cells, want 2", calls.Load())
		}
		_, err = spec.RunContext(context.Background())
		if err == nil || !strings.Contains(err.Error(), "experiments: chaos/Square-Lattice/GHZ(6): injected") {
			t.Fatalf("workers=%d: RunContext error %v, want the first failing cell", workers, err)
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("workers=%d: error %q, serial %q", workers, err, want)
		}
	}
}

// TestStreamEmitErrorStops: an emit error ends the stream with that error,
// and Stream returns only once every cell it started has finished.
func TestStreamEmitErrorStops(t *testing.T) {
	var started, finished atomic.Int64
	spec := chaosSpec()
	spec.Parallelism = 4
	spec.Tolerant = true
	spec.CellHook = func(context.Context, string, int, string) error {
		started.Add(1)
		defer finished.Add(1)
		return nil
	}
	stopErr := errors.New("reader gone")
	emitted := 0
	err := spec.Stream(context.Background(), evaluate, func(CellOutcome) error {
		emitted++
		return stopErr
	})
	if !errors.Is(err, stopErr) || emitted != 1 {
		t.Fatalf("Stream returned %v after %d emits, want the emit error after 1", err, emitted)
	}
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("Stream returned with %d of %d started cells unfinished", s-f, s)
	}
}
