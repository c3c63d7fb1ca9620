package experiments

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/par"
	"repro/internal/topology"
)

// chaosSpec is the tiny sweep every robustness test drives: 2 machines ×
// 2 workloads × 2 sizes = 8 cells, small enough for -race chaos runs.
func chaosSpec() SweepSpec {
	return SweepSpec{
		ID:        "chaos",
		Kind:      SwapCounts,
		Machines:  machinesTopoOnly(topology.SquareLattice16(), topology.Tree20()),
		Workloads: []string{"GHZ", "QFT"},
		Sizes:     []int{4, 6},
		Config:    QuickConfig(),
	}
}

// pointIndex flattens series into a (label, workload, size) → Point map so
// partial results can be compared cell-by-cell against a clean run.
func pointIndex(series []Series) map[[2]string]map[int]Point {
	out := map[[2]string]map[int]Point{}
	for _, s := range series {
		k := [2]string{s.Label, s.Workload}
		if out[k] == nil {
			out[k] = map[int]Point{}
		}
		for _, p := range s.Points {
			out[k][p.Size] = p
		}
	}
	return out
}

// TestFaultTolerantSweepIsolatesPanics: with a deterministic panic
// injector breaking roughly half the cells, a tolerant sweep still
// completes, reports every casualty as a *par.PanicError inside
// CellErrors, and the surviving cells match a clean run exactly.
func TestFaultTolerantSweepIsolatesPanics(t *testing.T) {
	clean, err := chaosSpec().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	spec := chaosSpec()
	spec.Tolerant = true
	spec.CellHook = faultinject.PanicCells(3, 0.5)
	got, err := spec.RunContext(context.Background())
	var ce CellErrors
	if !errors.As(err, &ce) || len(ce) == 0 {
		t.Fatalf("injected-panic sweep error = %v, want non-empty CellErrors", err)
	}
	nCells := len(spec.Machines) * len(spec.Workloads) * len(spec.Sizes)
	if len(ce) >= nCells {
		t.Fatalf("all %d cells failed; injector p=0.5 should spare some", nCells)
	}
	for _, c := range ce {
		var pe *par.PanicError
		if !errors.As(c.Err, &pe) {
			t.Fatalf("cell %s error = %v, want *par.PanicError", c, c.Err)
		}
	}
	want := pointIndex(clean)
	for _, s := range got {
		for _, p := range s.Points {
			if want[[2]string{s.Label, s.Workload}][p.Size] != p {
				t.Fatalf("surviving cell %s/%s(%d) diverged from clean run", s.Label, s.Workload, p.Size)
			}
		}
	}
}

// TestChaosSlowCellsHitCellTimeout: an injector that hangs every cell until
// its context dies, combined with a per-cell budget, must fail every cell
// with context.DeadlineExceeded — visible both per cell and through the
// aggregate's errors.Is unwrapping — while the sweep itself completes.
func TestChaosSlowCellsHitCellTimeout(t *testing.T) {
	spec := chaosSpec()
	spec.Tolerant = true
	spec.CellTimeout = 5 * time.Millisecond
	spec.CellHook = faultinject.SlowCells(11, 1)
	got, err := spec.RunContext(context.Background())
	var ce CellErrors
	if !errors.As(err, &ce) {
		t.Fatalf("slow sweep error = %v, want CellErrors", err)
	}
	nCells := len(spec.Machines) * len(spec.Workloads) * len(spec.Sizes)
	if len(ce) != nCells {
		t.Fatalf("%d cells failed, want all %d", len(ce), nCells)
	}
	for _, c := range ce {
		if !errors.Is(c.Err, context.DeadlineExceeded) {
			t.Fatalf("cell %v failed with %v, want DeadlineExceeded", c, c.Err)
		}
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatal("CellErrors does not unwrap to context.DeadlineExceeded")
	}
	for _, s := range got {
		if len(s.Points) != 0 {
			t.Fatal("fully-failed sweep still produced points")
		}
	}
}

// TestFaultSweepDeadlineExpires: an already-expired whole-sweep deadline
// fails a fail-fast run with context.DeadlineExceeded.
func TestFaultSweepDeadlineExpires(t *testing.T) {
	spec := chaosSpec()
	spec.Deadline = time.Nanosecond
	if _, err := spec.RunContext(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("1ns sweep deadline = %v, want context.DeadlineExceeded", err)
	}
}

// TestSweepResumeByteIdentical is the acceptance test for crash-resume: a
// sweep that completes only some cells (fault-injected) while journaling,
// then re-runs against the same journal, produces Series byte-identical to
// an uninterrupted clean run — and a third run against the now-complete
// journal replays entirely, never invoking the evaluation path (pinned by
// a hook that would fail every cell it reaches).
func TestSweepResumeByteIdentical(t *testing.T) {
	clean, err := chaosSpec().RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sweep.journal")

	// Run 1: half the cells fail; survivors are journaled.
	j1, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := chaosSpec()
	spec.Journal = j1
	spec.Tolerant = true
	spec.CellHook = faultinject.FailCells(3, 0.5)
	if _, err := spec.RunContext(context.Background()); err == nil {
		t.Fatal("fault-injected first run reported no failures; test needs a partial journal")
	}
	done := j1.Len()
	if err := j1.Close(); err != nil {
		t.Fatal(err)
	}
	nCells := len(spec.Machines) * len(spec.Workloads) * len(spec.Sizes)
	if done == 0 || done >= nCells {
		t.Fatalf("first run journaled %d/%d cells, want a strict subset", done, nCells)
	}

	// Run 2: resume with the fault gone — fills in the missing cells and
	// must match the uninterrupted run exactly.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != done {
		t.Fatalf("reopened journal has %d cells, want %d", j2.Len(), done)
	}
	spec = chaosSpec()
	spec.Journal = j2
	resumed, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, clean) {
		t.Fatalf("resumed sweep diverged from clean run:\n  clean   %+v\n  resumed %+v", clean, resumed)
	}

	// Run 3: the journal is complete, so every cell replays — a hook that
	// fails everything it touches must never be reached.
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if j3.Len() != nCells {
		t.Fatalf("completed journal has %d cells, want %d", j3.Len(), nCells)
	}
	var hookCalls atomic.Int64
	spec = chaosSpec()
	spec.Journal = j3
	spec.CellHook = func(context.Context, string, int, string) error {
		hookCalls.Add(1)
		return errors.New("evaluation path reached on a fully-journaled sweep")
	}
	replayed, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := j3.Close(); err != nil {
		t.Fatal(err)
	}
	if n := hookCalls.Load(); n != 0 {
		t.Fatalf("replay invoked the cell hook %d times", n)
	}
	if !reflect.DeepEqual(replayed, clean) {
		t.Fatal("fully-journaled replay diverged from clean run")
	}
}

// TestJournalResumeToleratesTornTail: garbage after the last complete
// record — a crash mid-append — is dropped on open instead of poisoning
// the resume, while corruption of an interior record fails loudly.
func TestJournalResumeToleratesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	spec := chaosSpec()
	spec.Journal = j
	if _, err := spec.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	n := j.Len()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("deadbeef torn-write-no-newline"); err != nil {
		t.Fatal(err)
	}
	f.Close()
	reopened, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if reopened.Len() != n {
		t.Fatalf("torn-tail journal indexed %d cells, want %d", reopened.Len(), n)
	}
	reopened.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[10] = 'z' // corrupt an interior record's key hex
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("interior corruption went undetected")
	}
}

// TestJournalNilIsInert: the nil-journal convention sweep plumbing relies
// on — every method a safe no-op.
func TestJournalNilIsInert(t *testing.T) {
	var j *Journal
	if _, ok := j.Lookup([32]byte{1}); ok {
		t.Fatal("nil journal reported a hit")
	}
	if err := j.Record([32]byte{1}, core.Metrics{}); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 0 {
		t.Fatal("nil journal has nonzero length")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}
