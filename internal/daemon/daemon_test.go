package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/noise"
)

// startServer boots a Server under test and returns its base URL plus a
// shutdown function that triggers the graceful drain and waits for Serve to
// return. Shutdown is idempotent so tests can drain explicitly and still
// rely on the cleanup.
func startServer(t *testing.T, cfg Config) (*Server, string, func() error) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = func(format string, args ...any) {} // keep drained-cleanly chatter out of test logs
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr, err := srv.Listen()
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	var once sync.Once
	var serveErr error
	shutdown := func() error {
		once.Do(func() {
			cancel()
			serveErr = <-done
		})
		return serveErr
	}
	t.Cleanup(func() {
		if err := shutdown(); err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, "http://" + addr, shutdown
}

// testEvaluateRequest is the small fixed evaluation the e2e tests hammer.
func testEvaluateRequest() EvaluateRequest {
	return EvaluateRequest{
		Machine:  "grid:rows=2,cols=2,name=G",
		Workload: "GHZ",
		Size:     4,
		Seed:     1,
		Trials:   1,
	}
}

// httpGetBody GETs one endpoint and returns status and body.
func httpGetBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(data)
}

// TestEvaluateDedupConcurrent is the tentpole contract: N identical
// concurrent requests cost exactly one evaluation; everyone gets the same
// bytes; the cache counters account for every request.
func TestEvaluateDedupConcurrent(t *testing.T) {
	var evals atomic.Int64
	srv, base, _ := startServer(t, Config{
		Parallelism: 2,
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			evals.Add(1)
			return nil
		},
	})
	const n = 32
	req := testEvaluateRequest()
	results := make([]core.Metrics, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(base)
			c.JitterSeed = uint64(i + 1)
			results[i], errs[i] = c.Evaluate(context.Background(), req)
		}(i)
	}
	wg.Wait()
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("request %d diverged: %+v vs %+v", i, results[i], results[0])
		}
	}
	if got := evals.Load(); got != 1 {
		t.Errorf("evaluations = %d, want exactly 1 for %d identical requests", got, n)
	}
	st := srv.Store().Snapshot()
	if st.Fills != 1 {
		t.Errorf("fills = %d, want 1", st.Fills)
	}
	if served := st.Dedups + st.MemHits + st.DiskHits; st.Fills+served < n {
		t.Errorf("accounting short: %d fills + %d dedup/hits < %d requests", st.Fills, served, n)
	}
}

// TestEvaluateWarmAcrossRestart proves the daemon's disk tier makes results
// durable: a fresh server over the same cachedir answers from disk without
// a single evaluation, byte-identically.
func TestEvaluateWarmAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	req := testEvaluateRequest()

	_, base1, shutdown := startServer(t, Config{CacheDir: dir, Parallelism: 1})
	cold, err := NewClient(base1).Evaluate(context.Background(), req)
	if err != nil {
		t.Fatalf("cold evaluate: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	var evals atomic.Int64
	srv2, base2, _ := startServer(t, Config{
		CacheDir:    dir,
		Parallelism: 1,
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			evals.Add(1)
			return nil
		},
	})
	warm, err := NewClient(base2).Evaluate(context.Background(), req)
	if err != nil {
		t.Fatalf("warm evaluate: %v", err)
	}
	if warm != cold {
		t.Errorf("restarted server diverged: %+v vs %+v", warm, cold)
	}
	if got := evals.Load(); got != 0 {
		t.Errorf("evaluations after restart = %d, want 0 (disk hit)", got)
	}
	if st := srv2.Store().Snapshot(); st.DiskHits != 1 {
		t.Errorf("disk hits = %d, want 1", st.DiskHits)
	}
}

// TestEvaluateShed pins the admission bound: with one worker slot and a
// queue depth of one, a third distinct in-flight key is refused with 429 +
// Retry-After instead of queueing, and the two admitted requests still
// complete once unblocked.
func TestEvaluateShed(t *testing.T) {
	entered := make(chan string, 3)
	release := make(chan struct{})
	srv, base, _ := startServer(t, Config{
		Parallelism: 1,
		QueueDepth:  1, // admission bound: 1 running + 1 waiting
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			entered <- machine
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	reqFor := func(name string) EvaluateRequest {
		r := testEvaluateRequest()
		r.Machine = fmt.Sprintf("grid:rows=2,cols=2,name=%s", name)
		return r
	}
	type outcome struct {
		met core.Metrics
		err error
	}
	outA, outB := make(chan outcome, 1), make(chan outcome, 1)
	go func() {
		m, err := NewClient(base).Evaluate(context.Background(), reqFor("A"))
		outA <- outcome{m, err}
	}()
	<-entered // A holds the only slot inside its hook
	go func() {
		m, err := NewClient(base).Evaluate(context.Background(), reqFor("B"))
		outB <- outcome{m, err}
	}()
	// B is admitted (queued) once the admission counter reaches the limit;
	// spin on the counter rather than sleeping.
	for srv.queued.Load() < 2 {
		runtime.Gosched()
	}
	c := NewClient(base)
	c.Retries = 0 // the point is the refusal, not the recovery
	_, err := c.Evaluate(context.Background(), reqFor("C"))
	if err == nil || !strings.Contains(err.Error(), "429") {
		t.Fatalf("third concurrent key: got %v, want 429 shed", err)
	}
	if !strings.Contains(err.Error(), "queue full") {
		t.Errorf("shed error %q should carry the structured server message", err)
	}
	if got := srv.met.sheds.Load(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}
	close(release)
	if o := <-outA; o.err != nil {
		t.Errorf("admitted request A failed: %v", o.err)
	}
	if o := <-outB; o.err != nil {
		t.Errorf("queued request B failed: %v", o.err)
	}
}

// TestEvaluatePanicConfined proves fault containment: a panicking
// evaluation becomes a 500 for the requests joined on that key and nothing
// else — the process keeps serving, liveness stays green, and the next
// request works.
func TestEvaluatePanicConfined(t *testing.T) {
	srv, base, _ := startServer(t, Config{
		Parallelism: 1,
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			if machine == "boom" {
				panic("injected evaluation fault")
			}
			return nil
		},
	})
	bad := testEvaluateRequest()
	bad.Machine = "grid:rows=2,cols=2,name=boom"
	c := NewClient(base)
	c.Retries = 0
	_, err := c.Evaluate(context.Background(), bad)
	if err == nil || !strings.Contains(err.Error(), "500") || !strings.Contains(err.Error(), "evaluation panicked") {
		t.Fatalf("panicking key: got %v, want 500 evaluation panicked", err)
	}
	if code, body := httpGetBody(t, base+healthzPath); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz after panic: %d %q, want 200 ok", code, body)
	}
	if got := srv.met.panics.Load(); got != 1 {
		t.Errorf("panics = %d, want 1", got)
	}
	if _, err := NewClient(base).Evaluate(context.Background(), testEvaluateRequest()); err != nil {
		t.Errorf("healthy key after contained panic: %v", err)
	}
}

// TestEvaluateTimeout pins the deadline path: a request whose evaluation
// outlives its timeout_ms gets 504, not a hung connection.
func TestEvaluateTimeout(t *testing.T) {
	_, base, _ := startServer(t, Config{
		Parallelism: 1,
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			<-ctx.Done() // wedge until the request deadline fires
			return ctx.Err()
		},
	})
	req := testEvaluateRequest()
	req.TimeoutMS = 50
	c := NewClient(base)
	c.Retries = 0
	_, err := c.Evaluate(context.Background(), req)
	if err == nil || !strings.Contains(err.Error(), "504") {
		t.Fatalf("wedged evaluation: got %v, want 504 deadline", err)
	}
}

// TestEvaluateBadRequest pins the 400 surface: structured JSON errors for
// client mistakes, no retries burned on deterministic failures.
func TestEvaluateBadRequest(t *testing.T) {
	_, base, _ := startServer(t, Config{Parallelism: 1})
	for _, tc := range []struct {
		name string
		mut  func(*EvaluateRequest)
		want string
	}{
		{"missing machine", func(r *EvaluateRequest) { r.Machine = "" }, "missing machine"},
		{"bad machine", func(r *EvaluateRequest) { r.Machine = "nosuch:family=1" }, "machine"},
		{"oversized", func(r *EvaluateRequest) { r.Size = 400 }, "exceeds machine"},
		{"bad router", func(r *EvaluateRequest) { r.Router = "dijkstra" }, "unknown router"},
		{"negative trials", func(r *EvaluateRequest) { r.Trials = -1 }, "trials"},
		{"bad workload", func(r *EvaluateRequest) { r.Workload = "NoSuchLoad" }, "workload"},
		{"bad noise", func(r *EvaluateRequest) { r.Noise = "e2q=2" }, "noise"},
		{"bad noise model", func(r *EvaluateRequest) { r.Noise, r.NoiseModel = "e2q=0.01", "exact" }, "unknown noise_model"},
		{"bad noise route", func(r *EvaluateRequest) { r.Noise, r.NoiseRoute = "e2q=0.01", "fast" }, "unknown noise_route"},
		{"shots without montecarlo", func(r *EvaluateRequest) { r.Noise, r.NoiseModel, r.NoiseShots = "e2q=0.01", "count", 8 }, "noise_shots"},
		{"noise mode without profile", func(r *EvaluateRequest) { r.NoiseModel = "count" }, "need a noise profile"},
		{"montecarlo too wide to simulate", func(r *EvaluateRequest) {
			r.Machine, r.Size, r.Trials, r.Noise, r.NoiseModel = "grid:rows=5,cols=6", 30, 0, "e2q=0.01", "montecarlo"
		}, "montecarlo can simulate"},
	} {
		req := testEvaluateRequest()
		tc.mut(&req)
		_, err := NewClient(base).Evaluate(context.Background(), req)
		if err == nil || !strings.Contains(err.Error(), "400") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want 400 containing %q", tc.name, err, tc.want)
		}
	}
}

// testSweepRequest is a 4-cell sweep small enough for e2e tests.
func testSweepRequest() SweepRequest {
	return SweepRequest{
		ID:        "e2e",
		Kind:      "swaps",
		Machines:  "grid:rows=2,cols=2,name=G;tree:levels=2,name=T",
		Workloads: []string{"GHZ"},
		Sizes:     []int{3, 4},
		Seed:      experiments.DefaultSeed,
		Trials:    1,
	}
}

// TestSweepJournalKeyIdentity pins which SweepRequest fields address a
// sweep's journal. Spellings the server evaluates identically must share
// one journal, so a re-POST after a drain resumes instead of recomputing;
// CellTimeoutMS only bounds runtime and never moves the key; every other
// field separates keys. The field list, the embedded Knobs' fields
// included, is checked against the struct, so a new wire field fails here
// until it is classified.
func TestSweepJournalKeyIdentity(t *testing.T) {
	key := func(req SweepRequest) cache.Key {
		t.Helper()
		spec, err := SpecFromRequest(req)
		if err != nil {
			t.Fatalf("SpecFromRequest(%+v): %v", req, err)
		}
		return sweepJournalKey(req, spec)
	}
	type edit func(*SweepRequest)
	guided := func(r *SweepRequest) { r.Profile = true }
	counted := func(r *SweepRequest) { r.Noise, r.NoiseModel = "e2q=0.002,tdec=0.001", "count" }
	sampled := func(r *SweepRequest) { r.Noise, r.NoiseModel = "e2q=0.002,tdec=0.001", "montecarlo" }
	same := []struct {
		name string
		a, b edit
	}{
		{"router default vs stochastic", func(r *SweepRequest) { r.Router = "" }, func(r *SweepRequest) { r.Router = "stochastic" }},
		{"trials default vs 20", func(r *SweepRequest) { r.Trials = 0 }, func(r *SweepRequest) { r.Trials = 20 }},
		{"guided iterations 0 vs 1", guided, func(r *SweepRequest) { r.Profile, r.ProfileIterations = true, 1 }},
		{"iterations without guidance", func(r *SweepRequest) {}, func(r *SweepRequest) { r.ProfileIterations = 3 }},
		{"cell timeout", func(r *SweepRequest) {}, func(r *SweepRequest) { r.CellTimeoutMS = 5000 }},
		{"machine key order", func(r *SweepRequest) { r.Machines = "grid:rows=2,cols=3,name=G" }, func(r *SweepRequest) { r.Machines = "grid:cols=3,rows=2,name=G" }},
		{"noise parameter order", counted, func(r *SweepRequest) { r.Noise, r.NoiseModel = "tdec=0.001,e2q=0.002", "count" }},
		{"noise without a noise mode", func(r *SweepRequest) {}, func(r *SweepRequest) { r.Noise = "e2q=0.002,tdec=0.001" }},
		{"shots default vs explicit", sampled, func(r *SweepRequest) { sampled(r); r.NoiseShots = noise.DefaultShots }},
	}
	for _, tc := range same {
		a, b := testSweepRequest(), testSweepRequest()
		tc.a(&a)
		tc.b(&b)
		if key(a) != key(b) {
			t.Errorf("%s: keys differ for requests the server evaluates identically", tc.name)
		}
	}
	for _, other := range []string{"grid:rows=3,cols=3,name=G", "grid:rows=2,cols=3,name=H"} {
		a, b := testSweepRequest(), testSweepRequest()
		a.Machines, b.Machines = "grid:rows=2,cols=3,name=G", other
		if key(a) == key(b) {
			t.Errorf("machines %q and %q share a journal key", a.Machines, b.Machines)
		}
	}
	runtimeOnly := map[string]bool{"CellTimeoutMS": true}
	separates := map[string][2]edit{
		"ID":                {nil, func(r *SweepRequest) { r.ID = "other" }},
		"Kind":              {nil, func(r *SweepRequest) { r.Kind = "codesign" }},
		"Machines":          {nil, func(r *SweepRequest) { r.Machines = "grid:rows=2,cols=2,name=G" }},
		"Workloads":         {nil, func(r *SweepRequest) { r.Workloads = []string{"QFT"} }},
		"Sizes":             {nil, func(r *SweepRequest) { r.Sizes = []int{3} }},
		"Seed":              {nil, func(r *SweepRequest) { r.Seed++ }},
		"Trials":            {nil, func(r *SweepRequest) { r.Trials = 2 }},
		"Router":            {nil, func(r *SweepRequest) { r.Router = "sabre" }},
		"Profile":           {nil, guided},
		"ProfileIterations": {guided, func(r *SweepRequest) { r.Profile, r.ProfileIterations = true, 3 }},
		"Noise":             {counted, func(r *SweepRequest) { r.Noise = "e2q=0.004,tdec=0.001" }},
		"NoiseModel":        {counted, sampled},
		"NoiseRoute":        {counted, func(r *SweepRequest) { r.NoiseRoute = "pure" }},
		"NoiseShots":        {sampled, func(r *SweepRequest) { r.NoiseShots = 64 }},
	}
	for name, e := range separates {
		a, b := testSweepRequest(), testSweepRequest()
		if e[0] != nil {
			e[0](&a)
			e[0](&b)
		}
		e[1](&b)
		if key(a) == key(b) {
			t.Errorf("changing %s did not change the journal key", name)
		}
	}
	wire := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(SweepRequest{})) {
		if f.Anonymous {
			continue
		}
		wire++
		if _, ok := separates[f.Name]; !ok && !runtimeOnly[f.Name] {
			t.Errorf("SweepRequest.%s is not classified as key-separating or runtime-only", f.Name)
		}
	}
	if n := len(separates) + len(runtimeOnly); n != wire {
		t.Errorf("%d classified fields, SweepRequest has %d", n, wire)
	}
}

// TestSweepStream runs one sweep end to end: every cell arrives in index
// order with metrics, the summary accounts for all of them, and re-running
// against the same server is served from cache with identical values.
func TestSweepStream(t *testing.T) {
	var evals atomic.Int64
	_, base, _ := startServer(t, Config{
		Parallelism: 2,
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			evals.Add(1)
			return nil
		},
	})
	req := testSweepRequest()
	res, err := NewClient(base).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Summary.Completed != len(res.Cells) || res.Summary.Failed != 0 || res.Summary.Skipped != 0 {
		t.Fatalf("summary %+v, want all %d cells completed", res.Summary, len(res.Cells))
	}
	for i, cell := range res.Cells {
		if cell == nil || cell.Metrics == nil {
			t.Fatalf("cell %d missing from stream", i)
		}
		if cell.Index != i {
			t.Errorf("cell %d arrived with index %d", i, cell.Index)
		}
	}
	firstEvals := evals.Load()
	again, err := NewClient(base).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("repeat sweep: %v", err)
	}
	if got := evals.Load(); got != firstEvals {
		t.Errorf("repeat sweep evaluated %d more cells, want 0 (cache)", got-firstEvals)
	}
	for i := range res.Cells {
		if *again.Cells[i].Metrics != *res.Cells[i].Metrics {
			t.Errorf("cell %d diverged on repeat: %+v vs %+v", i, again.Cells[i].Metrics, res.Cells[i].Metrics)
		}
	}
}

// TestSweepSeriesMatchesLocal is the remote-fidelity contract: the series a
// client assembles from the daemon's stream (Client.RunSweep) are
// identical — labels, sizes, every metric — to the same spec run locally
// in-process.
func TestSweepSeriesMatchesLocal(t *testing.T) {
	_, base, _ := startServer(t, Config{Parallelism: 2})
	req := testSweepRequest()
	spec, err := SpecFromRequest(req)
	if err != nil {
		t.Fatalf("spec: %v", err)
	}
	remote, err := NewClient(base).RunSweep(context.Background(), spec, req.Machines)
	if err != nil {
		t.Fatalf("remote sweep: %v", err)
	}
	spec.Parallelism = 1
	local, err := spec.RunContext(context.Background())
	if err != nil {
		t.Fatalf("local sweep: %v", err)
	}
	if lr, ll := experiments.FormatSeries(remote, spec.Kind), experiments.FormatSeries(local, spec.Kind); lr != ll {
		t.Errorf("remote rendering diverged from local:\nremote:\n%s\nlocal:\n%s", lr, ll)
	}
}

// TestSweepDrainResume covers the drain/resume lifecycle end to end: a
// SIGTERM-equivalent drain mid-sweep finishes the in-flight cell, skips the
// rest, journals what completed; a restarted server with the same journal
// dir and a cold cache replays finished cells and computes only the
// missing ones, and the stitched result matches an uninterrupted run.
func TestSweepDrainResume(t *testing.T) {
	journals := t.TempDir()
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	srv, base, shutdown := startServer(t, Config{
		Parallelism: 1,
		JournalDir:  journals,
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			entered <- struct{}{}
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	req := testSweepRequest()
	type sweepOut struct {
		res *SweepResult
		err error
	}
	out := make(chan sweepOut, 1)
	go func() {
		c := NewClient(base)
		c.Retries = 0 // surface the partial result instead of retrying in place
		res, err := c.Sweep(context.Background(), req)
		out <- sweepOut{res, err}
	}()
	<-entered // first cell evaluating on the single worker
	go shutdown()
	for !srv.draining.Load() {
		runtime.Gosched()
	}
	close(release) // in-flight cell finishes; the drain skips the rest
	o := <-out
	if o.err == nil || !strings.Contains(o.err.Error(), "skipped") {
		t.Fatalf("drained sweep: err=%v, want incomplete-with-skips", o.err)
	}
	sum := o.res.Summary
	if sum.Completed == 0 || sum.Skipped == 0 || !sum.Draining {
		t.Fatalf("drain summary %+v, want some completed, some skipped, draining", sum)
	}
	// The drain closes the listener before in-flight requests finish, so
	// exercise the readiness handler directly: it must report draining.
	rec := httptest.NewRecorder()
	srv.handleReadyz(rec, httptest.NewRequest(http.MethodGet, readyzPath, nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "draining") {
		t.Errorf("readyz during drain: %d %q, want 503 draining", rec.Code, rec.Body.String())
	}
	if err := shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Restart over the same journals with a cold cache: finished cells
	// replay (Resumed), missing ones are computed, nothing evaluates twice.
	var evals atomic.Int64
	_, base2, _ := startServer(t, Config{
		Parallelism: 1,
		JournalDir:  journals,
		EvalHook: func(ctx context.Context, workload string, size int, machine string) error {
			evals.Add(1)
			return nil
		},
	})
	resumed, err := NewClient(base2).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("resumed sweep: %v", err)
	}
	if resumed.Summary.Completed != resumed.Summary.Cells {
		t.Fatalf("resumed summary %+v, want all cells completed", resumed.Summary)
	}
	if resumed.Summary.Resumed != sum.Completed {
		t.Errorf("resumed %d cells from journal, want %d (what the drained run finished)", resumed.Summary.Resumed, sum.Completed)
	}
	if want := int64(resumed.Summary.Cells - sum.Completed); evals.Load() != want {
		t.Errorf("resume evaluated %d cells, want %d (only the missing ones)", evals.Load(), want)
	}
	// The stitched result matches an uninterrupted run on a third server.
	_, base3, _ := startServer(t, Config{Parallelism: 1})
	clean, err := NewClient(base3).Sweep(context.Background(), req)
	if err != nil {
		t.Fatalf("clean sweep: %v", err)
	}
	for i := range clean.Cells {
		if *resumed.Cells[i].Metrics != *clean.Cells[i].Metrics {
			t.Errorf("cell %d: resumed %+v diverged from clean %+v", i, resumed.Cells[i].Metrics, clean.Cells[i].Metrics)
		}
	}
}

// TestDrainRefusesNewWork pins the drain admission surface: once
// draining, a cold /evaluate answers 503 with Retry-After and a valid
// /sweep is refused with 503 before any NDJSON line. A drain closes the
// listener, so the handlers are driven directly.
func TestDrainRefusesNewWork(t *testing.T) {
	srv, err := New(Config{Parallelism: 1, Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatal(err)
	}
	srv.beginDrain()
	post := func(h http.HandlerFunc, path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		return rec
	}
	rec := post(srv.handleEvaluate, evaluatePath, testEvaluateRequest())
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") != "5" {
		t.Errorf("cold /evaluate while draining: %d, Retry-After %q; want 503, Retry-After 5", rec.Code, rec.Header().Get("Retry-After"))
	}
	rec = post(srv.handleSweep, sweepPath, testSweepRequest())
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Content-Type") == ndjsonContentType || strings.Contains(rec.Body.String(), `"cell"`) {
		t.Errorf("/sweep while draining: %d %s %q; want 503 before any NDJSON line", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
}

// TestMetricsExposition spot-checks the Prometheus surface the probe and
// smoke arm parse: counters present, request counts labelled, histogram
// rendered.
func TestMetricsExposition(t *testing.T) {
	_, base, _ := startServer(t, Config{Parallelism: 1})
	if _, err := NewClient(base).Evaluate(context.Background(), testEvaluateRequest()); err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	code, body := httpGetBody(t, base+metricsPath)
	if code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"qcbenchd_cache_fills_total 1",
		"qcbenchd_cache_dedups_total 0",
		"qcbenchd_queue_limit",
		"qcbenchd_inflight 0",
		"qcbenchd_sheds_total 0",
		"qcbenchd_draining 0",
		`qcbenchd_requests_total{endpoint="evaluate",code="200"} 1`,
		`qcbenchd_request_seconds_count{endpoint="evaluate"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestEvaluateNoisyMatchesLocal: the noise knobs travel over /evaluate, and
// the served metrics are those of a local evaluation under the core.Options
// they spell.
func TestEvaluateNoisyMatchesLocal(t *testing.T) {
	_, base, _ := startServer(t, Config{Parallelism: 1})
	req := testEvaluateRequest()
	req.Noise, req.NoiseModel, req.NoiseShots, req.NoiseRoute = "e2q=0.01,tdec=0.002", "montecarlo", 8, "pure"
	remote, err := NewClient(base).Evaluate(context.Background(), req)
	if err != nil {
		t.Fatalf("evaluate: %v", err)
	}
	m, err := core.FromSpec(req.Machine)
	if err != nil {
		t.Fatal(err)
	}
	c, err := experiments.BenchmarkCircuit(req.Workload, req.Size, req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	local, err := m.EvaluateContext(context.Background(), c, core.Options{
		Seed: req.Seed, Trials: req.Trials, Noise: &arch.NoiseProfile{E2Q: 0.01, TDec: 0.002},
		Fidelity: core.FidelityMonteCarlo, NoiseShots: 8, NoiseRoute: core.NoiseRoutePure,
	})
	if err != nil {
		t.Fatal(err)
	}
	if remote != local || remote.EstFidelity == 0 {
		t.Errorf("served %+v, local %+v (want equal, with a fidelity)", remote, local)
	}
}
