package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/experiments"
	"repro/internal/faultinject"
)

// TestFaultInjectedSweepMatchesLocal holds local == -server under
// injected faults: the same faultinject.FailCells schedule, as a local
// spec's CellHook and as a fresh daemon's EvalHook, fails the same cells.
// A tolerant remote sweep reports the local casualties and renders the
// local survivors byte for byte; a fail-fast one returns the local error.
func TestFaultInjectedSweepMatchesLocal(t *testing.T) {
	req := testSweepRequest()
	req.Workloads = []string{"GHZ", "QFT"}
	inject := faultinject.FailCells(5, 0.4)
	for _, tolerant := range []bool{true, false} {
		spec, err := SpecFromRequest(req)
		if err != nil {
			t.Fatal(err)
		}
		spec.Tolerant = tolerant
		local := spec
		local.CellHook = inject
		want, wantErr := local.RunContext(context.Background())
		if wantErr == nil {
			t.Fatalf("tolerant=%v: injection failed no cell; the test needs some", tolerant)
		}
		_, base, _ := startServer(t, Config{Parallelism: 2, EvalHook: inject})
		c := NewClient(base)
		c.Retries = 0
		got, gotErr := c.RunSweep(context.Background(), spec, req.Machines)
		if gotErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("tolerant=%v: remote error %v, local %v", tolerant, gotErr, wantErr)
		}
		if !tolerant {
			if got != nil || want != nil {
				t.Errorf("fail-fast sweep returned series: remote %v, local %v", got, want)
			}
			continue
		}
		var wantCells, gotCells experiments.CellErrors
		if !errors.As(wantErr, &wantCells) || !errors.As(gotErr, &gotCells) {
			t.Fatalf("tolerant errors are not CellErrors: remote %T, local %T", gotErr, wantErr)
		}
		if len(wantCells) == len(spec.Cells()) {
			t.Fatal("injection failed every cell; the test needs survivors")
		}
		coords := func(ce experiments.CellErrors) [][3]string {
			var out [][3]string
			for _, e := range ce {
				out = append(out, [3]string{e.Workload, e.Machine, fmt.Sprint(e.Size)})
			}
			return out
		}
		if !reflect.DeepEqual(coords(gotCells), coords(wantCells)) {
			t.Errorf("failed cells: remote %v, local %v", coords(gotCells), coords(wantCells))
		}
		if r, l := experiments.FormatSeries(got, spec.Kind), experiments.FormatSeries(want, spec.Kind); r != l {
			t.Errorf("survivors diverged:\nremote:\n%s\nlocal:\n%s", r, l)
		}
	}
}

// disconnectingWriter is a ResponseWriter whose client goes away after the
// first event: the first write succeeds and runs gone, later ones fail.
type disconnectingWriter struct {
	*httptest.ResponseRecorder
	gone   func()
	closed bool
}

func (w *disconnectingWriter) Write(p []byte) (int, error) {
	if w.closed {
		return 0, errors.New("client disconnected")
	}
	n, err := w.ResponseRecorder.Write(p)
	w.closed = true
	w.gone()
	return n, err
}

// TestSweepDisconnectResume: a client that disconnects after the first
// event stops the sweep. handleSweep returns only once every cell it
// started has finished, no cell starts after the disconnect, nothing is
// journaled after Close, and re-POSTing the request replays every cell
// that completed.
func TestSweepDisconnectResume(t *testing.T) {
	var (
		mu                sync.Mutex
		logs              []string
		started, finished atomic.Int64
		blocking          atomic.Bool
	)
	entered := make(chan struct{}, 8)
	blocking.Store(true)
	srv, err := New(Config{
		Parallelism: 2,
		JournalDir:  t.TempDir(),
		Logf: func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			logs = append(logs, fmt.Sprintf(format, args...))
		},
		// Cell 0 (G, size 3) completes at once; every other cell holds
		// its slot until its context ends.
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			started.Add(1)
			defer finished.Add(1)
			if !blocking.Load() || machine == "G" && size == 3 {
				return nil
			}
			entered <- struct{}{}
			<-ctx.Done()
			return ctx.Err()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(testSweepRequest())
	if err != nil {
		t.Fatal(err)
	}
	ctx, disconnect := context.WithCancel(context.Background())
	defer disconnect()
	var atDisconnect int64
	w := &disconnectingWriter{ResponseRecorder: httptest.NewRecorder(), gone: func() {
		// Both workers hold a blocked cell (1 and 2), so no other cell
		// can have started.
		<-entered
		<-entered
		atDisconnect = started.Load()
		disconnect()
	}}
	srv.handleSweep(w, httptest.NewRequest(http.MethodPost, sweepPath, bytes.NewReader(body)).WithContext(ctx))
	if s, f := started.Load(), finished.Load(); s != f {
		t.Errorf("handleSweep returned with %d of %d started cells unfinished", s-f, s)
	}
	if atDisconnect != 3 || started.Load() != atDisconnect {
		t.Errorf("%d cells started by the disconnect, %d by the return; want 3 and no more", atDisconnect, started.Load())
	}
	mu.Lock()
	for _, line := range logs {
		if strings.Contains(line, "after Close") {
			t.Errorf("log: %s", line)
		}
	}
	mu.Unlock()

	blocking.Store(false)
	rec := httptest.NewRecorder()
	srv.handleSweep(rec, httptest.NewRequest(http.MethodPost, sweepPath, bytes.NewReader(body)))
	var cells []SweepCellResult
	var sum *SweepSummary
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var ev SweepEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event %q: %v", sc.Text(), err)
		}
		if ev.Cell != nil {
			cells = append(cells, *ev.Cell)
		}
		if ev.Done != nil {
			sum = ev.Done
		}
	}
	if sum == nil || sum.Completed != sum.Cells || sum.Resumed != 1 {
		t.Fatalf("re-POST summary %+v, want every cell completed and 1 resumed", sum)
	}
	for _, c := range cells {
		if c.Resumed != (c.Index == 0) {
			t.Errorf("re-POST cell %d resumed=%v; only cell 0 completed before the disconnect", c.Index, c.Resumed)
		}
	}
}

// TestSweepUngeneratableIsBadRequest: a sweep whose circuits cannot be
// generated fails with 400 before any event, as a local run of the same
// spec fails before any cell.
func TestSweepUngeneratableIsBadRequest(t *testing.T) {
	_, base, _ := startServer(t, Config{Parallelism: 1})
	req := testSweepRequest()
	req.Workloads = []string{"GHZ", "NoSuchLoad"}
	c := NewClient(base)
	c.Retries = 0
	res, err := c.Sweep(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), "NoSuchLoad") {
		t.Fatalf("sweep with an unknown workload: %v, want 400 naming it", err)
	}
	for i, cell := range res.Cells {
		if cell != nil {
			t.Errorf("cell %d streamed before the 400", i)
		}
	}
}
