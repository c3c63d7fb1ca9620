// Package daemon implements qcbenchd, the fault-contained evaluation
// service: an HTTP/JSON front end over the core evaluation pipeline that
// owns one two-tier result cache and serves concurrent clients without
// letting any single request take the process — or another client's
// request — down with it.
//
// The robustness posture, end to end:
//
//   - Admission control: evaluations run on a bounded worker pool sized
//     like the internal/par pools (0 = all cores). A bounded number of
//     fills may wait for a slot; past that, /evaluate sheds load with
//     429 + Retry-After instead of queueing unboundedly. Cache hits and
//     deduplicated joins bypass admission entirely, so a hot key never
//     sheds.
//   - Cross-client deduplication: requests are content-addressed by the
//     same core.Machine.EvaluateKey the CLI cache uses, and fills run
//     under cache.Store.Do singleflight — N identical concurrent requests
//     cost one evaluation, and the other N−1 wait for its result.
//   - Fault containment: a panicking evaluation is recovered inside its
//     fill (surfacing as *par.PanicError with the stack logged), fails
//     only the requests joined on that key, and leaves the process
//     serving. A quarantined disk tier flips /readyz to 503 while
//     /healthz stays 200 and memory-only serving continues.
//   - Deadlines: every request runs under a context deadline — the
//     client's timeout_ms clamped by the server's maximum — so a wedged
//     evaluation cannot hold a worker slot forever.
//   - Graceful drain: cancelling Serve's context (SIGTERM via
//     cli.NotifyContext in cmd/qcbenchd) stops admission, lets in-flight
//     evaluations finish under a drain deadline, syncs sweep journals,
//     and only then exits.
//
// POST /sweep streams a whole figure sweep as NDJSON, one event per cell
// in the fixed experiments.SweepSpec.Cells order, on the local sweep
// engine (experiments.SweepSpec.Stream: circuits, journal, cell timeout)
// with evaluate, the path /evaluate uses, as its cell evaluation.
// Client.RunSweep hands the streamed cells to SweepSpec.Assemble, as
// SweepSpec.RunContext does its own.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/sim"
)

// Default server limits. MaxTimeout bounds any single evaluation (a client
// may ask for less, never more); DrainTimeout bounds how long a SIGTERM
// drain waits for in-flight work; QueueDepth is the default number of
// fills that may wait for a worker slot, per slot, before shedding.
const (
	DefaultMaxTimeout    = 2 * time.Minute
	DefaultDrainTimeout  = 15 * time.Second
	DefaultQueueFactor   = 4
	shedRetryAfter       = 1 // seconds, sent with 429
	drainRetryAfter      = 5 // seconds, sent with 503 while draining
	healthzPath          = "/healthz"
	readyzPath           = "/readyz"
	metricsPath          = "/metrics"
	evaluatePath         = "/evaluate"
	sweepPath            = "/sweep"
	sweepJournalDomain   = "daemon.Sweep/v4"
	ndjsonContentType    = "application/x-ndjson"
	jsonContentType      = "application/json"
	maxEvaluateBodyBytes = 1 << 20
)

// Config parameterizes a Server. The zero value is serviceable: loopback
// listener on an ephemeral port, memory-only cache, all-cores worker pool,
// default queue bound and timeouts, no sweep journaling.
type Config struct {
	// Addr is the listen address; "" means "127.0.0.1:0" (loopback,
	// ephemeral port — Addr() reports what was bound).
	Addr string

	// CacheEntries and CacheDir configure the server's result cache
	// exactly like core.NewMetricsCache: entries bounds the in-memory LRU
	// (0 = default), dir adds the on-disk JSON tier ("" = memory-only).
	// CacheOpts tune the disk tier's robustness machinery and are the
	// chaos tests' seam for injecting filesystem faults.
	CacheEntries int
	CacheDir     string
	CacheOpts    []cache.Option

	// Parallelism is the evaluation worker-slot count (0 = all cores,
	// resolved like the internal/par pools). QueueDepth is how many fills
	// beyond the running ones may wait for a slot before /evaluate sheds
	// with 429 (0 = DefaultQueueFactor × slots).
	Parallelism int
	QueueDepth  int

	// MaxTimeout clamps every request's evaluation deadline (0 =
	// DefaultMaxTimeout); DrainTimeout bounds the SIGTERM drain (0 =
	// DefaultDrainTimeout).
	MaxTimeout   time.Duration
	DrainTimeout time.Duration

	// JournalDir, when non-empty, journals every /sweep request's
	// completed cells under a content-hash of the sweep's identity, so an
	// interrupted sweep re-POSTed after a restart replays finished cells
	// instead of recomputing them.
	JournalDir string

	// EvalHook, when non-nil, runs inside the admission slot immediately
	// before each evaluation — the fault-injection seam, structurally
	// compatible with faultinject's cell hooks. A hook error or panic
	// fails that evaluation only.
	EvalHook experiments.CellHook

	// Logf receives operational log lines (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Sentinel errors the admission path produces; handlers map them to 429
// and 503 respectively.
var (
	errShed     = errors.New("daemon: evaluation queue full")
	errDraining = errors.New("daemon: server draining")
)

// Server is the qcbenchd HTTP server. Create with New, bind with Listen
// (optional — Serve binds if needed), run with Serve; cancelling Serve's
// context triggers the graceful drain.
type Server struct {
	cfg        Config
	store      *core.MetricsCache
	slots      chan struct{}
	queueLimit int64
	queued     atomic.Int64
	drainCh    chan struct{}
	draining   atomic.Bool
	met        *serverMetrics
	httpSrv    *http.Server

	mu sync.Mutex
	ln net.Listener
}

// New builds a Server from cfg, including its result cache. The server
// owns the cache for its lifetime; Store exposes it to tests.
func New(cfg Config) (*Server, error) {
	store, err := core.NewMetricsCache(cfg.CacheEntries, cfg.CacheDir, cfg.CacheOpts...)
	if err != nil {
		return nil, fmt.Errorf("daemon: cache: %w", err)
	}
	slots := par.Resolve(cfg.Parallelism)
	depth := cfg.QueueDepth
	if depth <= 0 {
		depth = DefaultQueueFactor * slots
	}
	s := &Server{
		cfg:        cfg,
		store:      store,
		slots:      make(chan struct{}, slots),
		queueLimit: int64(slots + depth),
		drainCh:    make(chan struct{}),
		met:        newServerMetrics("evaluate", "sweep", "healthz", "readyz", "metrics"),
	}
	mux := http.NewServeMux()
	mux.HandleFunc(evaluatePath, s.instrument("evaluate", s.handleEvaluate))
	mux.HandleFunc(sweepPath, s.instrument("sweep", s.handleSweep))
	mux.HandleFunc(healthzPath, s.instrument("healthz", s.handleHealthz))
	mux.HandleFunc(readyzPath, s.instrument("readyz", s.handleReadyz))
	mux.HandleFunc(metricsPath, s.instrument("metrics", s.handleMetrics))
	s.httpSrv = &http.Server{Handler: mux}
	return s, nil
}

// Store exposes the server's result cache (tests assert on its Snapshot).
func (s *Server) Store() *core.MetricsCache { return s.store }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Listen binds the configured address and returns the bound address
// ("127.0.0.1:53412"), so callers can bind an ephemeral port and learn it
// before any request can be missed. Idempotent once bound.
func (s *Server) Listen() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		return s.ln.Addr().String(), nil
	}
	addr := s.cfg.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("daemon: listen %s: %w", addr, err)
	}
	s.ln = ln
	return ln.Addr().String(), nil
}

// Serve accepts requests until ctx is cancelled, then drains: admission
// stops (queued-but-undispatched work fails with errDraining, /readyz
// flips to 503), in-flight requests finish under Config.DrainTimeout, and
// Serve returns nil on a clean drain. A listener error surfaces directly.
func (s *Server) Serve(ctx context.Context) error {
	if _, err := s.Listen(); err != nil {
		return err
	}
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	errCh := make(chan error, 1)
	go func() { errCh <- s.httpSrv.Serve(ln) }()
	select {
	case err := <-errCh:
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("daemon: serve: %w", err)
	case <-ctx.Done():
	}
	s.beginDrain()
	dt := s.cfg.DrainTimeout
	if dt <= 0 {
		dt = DefaultDrainTimeout
	}
	sctx, cancel := context.WithTimeout(context.Background(), dt)
	defer cancel()
	err := s.httpSrv.Shutdown(sctx)
	<-errCh // http.ErrServerClosed from the Serve goroutine
	if err != nil {
		return fmt.Errorf("daemon: drain: %w", err)
	}
	s.logf("daemon: drained cleanly")
	return nil
}

// beginDrain flips the server into draining mode exactly once: /readyz
// reports 503, and every evaluation waiting for (or newly requesting) a
// worker slot fails with errDraining while in-flight evaluations finish.
func (s *Server) beginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.logf("daemon: draining: refusing new work, finishing in-flight requests")
		close(s.drainCh)
	}
}

// acquire admits one evaluation onto the worker pool and returns its
// release function. With shed set (interactive /evaluate fills), admission
// is bounded: once queueLimit evaluations are waiting or running, the
// request is refused with errShed instead of queueing — the server never
// accumulates unbounded waiters. Without shed (sweep cells), the caller
// blocks until a slot frees, its context expires, or the drain begins;
// sweeps self-throttle by construction, so they are paced rather than
// refused.
func (s *Server) acquire(ctx context.Context, shed bool) (release func(), err error) {
	undo := func() {}
	if shed {
		if s.queued.Add(1) > s.queueLimit {
			s.queued.Add(-1)
			s.met.sheds.Add(1)
			return nil, errShed
		}
		undo = func() { s.queued.Add(-1) }
	}
	// Drain wins over a free slot: select picks randomly among ready
	// cases, so check the drain channel alone first.
	select {
	case <-s.drainCh:
		undo()
		return nil, errDraining
	default:
	}
	select {
	case s.slots <- struct{}{}:
		s.met.inflight.Add(1)
		return func() {
			s.met.inflight.Add(-1)
			<-s.slots
			undo()
		}, nil
	case <-ctx.Done():
		undo()
		return nil, ctx.Err()
	case <-s.drainCh:
		undo()
		return nil, errDraining
	}
}

// evaluate runs one content-addressed evaluation through the cache's
// singleflight: hits and joins return without touching admission; the one
// fill per key acquires a worker slot (shedding or blocking per shed),
// runs the EvalHook seam, and evaluates with a recover that converts a
// panic into a *par.PanicError confined to the requests joined on this
// key. The server's store is the cache and ctx carries the clamped
// deadline, so the job's Cache and CellTimeout never apply a second time.
// With shed unset it is the CellEval of /sweep's engine.
func (s *Server) evaluate(ctx context.Context, shed bool, job *experiments.CellJob) (core.Metrics, error) {
	m := job.Machine
	fill := func() (met core.Metrics, err error) {
		defer func() {
			if r := recover(); r != nil {
				s.met.panics.Add(1)
				perr := &par.PanicError{Value: r, Stack: debug.Stack()}
				s.logf("daemon: evaluation panic contained: %s/%s(%d): %v\n%s",
					m.Name, job.Workload, job.Size, r, perr.Stack)
				err = perr
			}
		}()
		release, aerr := s.acquire(ctx, shed)
		if aerr != nil {
			return core.Metrics{}, aerr
		}
		defer release()
		if s.cfg.EvalHook != nil {
			if herr := s.cfg.EvalHook(ctx, job.Workload, job.Size, m.Name); herr != nil {
				return core.Metrics{}, herr
			}
		}
		opt := job.Options
		opt.Cache, opt.CellTimeout = nil, 0
		return m.EvaluateContext(ctx, job.Circuit, opt)
	}
	return s.store.Do(job.Key(), fill)
}

// requestTimeout clamps a client's timeout_ms by the server maximum.
func (s *Server) requestTimeout(ms int64) time.Duration {
	max := s.cfg.MaxTimeout
	if max <= 0 {
		max = DefaultMaxTimeout
	}
	if d := msDuration(ms); d > 0 && d < max {
		return d
	}
	return max
}

// msDuration reads a wire millisecond count as a duration: 0 for a
// non-positive count, saturating where the nanoseconds would overflow.
func msDuration(ms int64) time.Duration {
	const maxMS = math.MaxInt64 / int64(time.Millisecond)
	return time.Duration(max(0, min(ms, maxMS))) * time.Millisecond
}

// statusWriter records the status code a handler wrote (200 if it never
// called WriteHeader) and forwards Flush for streaming responses.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request counting and latency histograms.
func (s *Server) instrument(endpoint string, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		fn(sw, r)
		s.met.observe(endpoint, sw.code, time.Since(start))
	}
}

// errorBody is the structured JSON error every non-2xx response carries.
type errorBody struct {
	Error        string `json:"error"`
	Code         int    `json:"code"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// writeError emits a structured JSON error; retryAfter > 0 additionally
// sets the Retry-After header (seconds) for 429/503 shedding responses.
func writeError(w http.ResponseWriter, code int, retryAfter int, format string, args ...any) {
	w.Header().Set("Content-Type", jsonContentType)
	if retryAfter > 0 {
		w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
	}
	w.WriteHeader(code)
	body := errorBody{Error: fmt.Sprintf(format, args...), Code: code}
	if retryAfter > 0 {
		body.RetryAfterMS = int64(retryAfter) * 1000
	}
	enc := json.NewEncoder(w)
	enc.Encode(body) //nolint:errcheck // response already committed
}

// writeJSON emits a 200 JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", jsonContentType)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // response already committed
}

// Knobs are the evaluation settings an /evaluate or /sweep request carries
// besides its coordinates and trial count: every core.Options field that
// can change a result, spelled as qcbench's flags and core's name tables
// spell them (noise in the -noise grammar). An empty field is the option's
// zero value, so noise alone is inert, as core.Options.Noise is.
type Knobs struct {
	Router            string `json:"router,omitempty"` // stochastic, sabre
	Profile           bool   `json:"profile,omitempty"`
	ProfileIterations int    `json:"profile_iterations,omitempty"`
	Noise             string `json:"noise,omitempty"`
	NoiseModel        string `json:"noise_model,omitempty"` // count, montecarlo
	NoiseRoute        string `json:"noise_route,omitempty"` // pure, blend
	NoiseShots        int    `json:"noise_shots,omitempty"`
}

// options is the one conversion from the wire: it validates the knobs and
// maps them, with the request's seed and trial count, onto core.Options.
// Every error is a client mistake (400).
func (k Knobs) options(seed int64, trials int) (opt core.Options, err error) {
	opt = core.Options{Seed: seed, Trials: trials, ProfileGuided: k.Profile,
		ProfileIterations: k.ProfileIterations, NoiseShots: k.NoiseShots}
	if k.Noise != "" {
		if opt.Noise, err = arch.ParseNoise(k.Noise); err != nil {
			return opt, fmt.Errorf("noise: %v", err)
		}
	}
	if opt.Router, err = core.RouterNames.Parse("router", k.Router); err != nil {
		return opt, err
	}
	if opt.Fidelity, err = core.FidelityNames.Parse("noise_model", k.NoiseModel); err != nil {
		return opt, err
	}
	if opt.NoiseRoute, err = core.NoiseRouteNames.Parse("noise_route", k.NoiseRoute); err != nil {
		return opt, err
	}
	switch {
	case trials < 0:
		err = fmt.Errorf("trials must be ≥ 0, got %d", trials)
	case k.ProfileIterations < 0:
		err = fmt.Errorf("profile_iterations must be ≥ 0, got %d", k.ProfileIterations)
	case k.NoiseShots < 0:
		err = fmt.Errorf("noise_shots must be ≥ 0, got %d", k.NoiseShots)
	case k.NoiseShots > 0 && opt.Fidelity != core.FidelityMonteCarlo:
		err = fmt.Errorf("noise_shots only applies to noise_model montecarlo")
	}
	return opt, err
}

// knobsOf is options' inverse: the knobs that convert back to opt's
// evaluation settings.
func knobsOf(opt core.Options) Knobs {
	return Knobs{
		Router:            opt.Router.String(),
		Profile:           opt.ProfileGuided,
		ProfileIterations: opt.ProfileIterations,
		Noise:             opt.Noise.String(),
		NoiseModel:        opt.Fidelity.String(),
		NoiseRoute:        opt.NoiseRoute.String(),
		NoiseShots:        opt.NoiseShots,
	}
}

// EvaluateRequest is the /evaluate wire request: one machine (declarative
// arch spec), one benchmark workload at one width, and the evaluation
// knobs that are part of the result's identity. Seed seeds both the
// circuit generation and the routing, mirroring the CLI's headline
// evaluations. TimeoutMS is a runtime bound only — it never changes what a
// completed evaluation computes and is excluded from the cache key.
type EvaluateRequest struct {
	Machine  string `json:"machine"`
	Workload string `json:"workload"`
	Size     int    `json:"size"`
	Seed     int64  `json:"seed"`
	Trials   int    `json:"trials,omitempty"`
	Knobs
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// buildEvaluate validates an EvaluateRequest into the cell job it names.
// Every error here is a client mistake (400).
func buildEvaluate(req EvaluateRequest) (*experiments.CellJob, error) {
	opt, err := req.options(req.Seed, req.Trials)
	if err != nil {
		return nil, err
	}
	if req.Machine == "" {
		return nil, fmt.Errorf("missing machine spec")
	}
	m, err := core.FromSpec(req.Machine)
	if err != nil {
		return nil, fmt.Errorf("machine: %v", err)
	}
	switch {
	case req.Size > m.Graph.N():
		return nil, fmt.Errorf("size %d exceeds machine %s (%d qubits)", req.Size, m.Name, m.Graph.N())
	case (opt.Fidelity != core.FidelityOff || opt.NoiseRoute != core.NoiseRouteOff) && m.Noise.IsZero() && opt.Noise.IsZero():
		return nil, fmt.Errorf("noise_model/noise_route need a noise profile: set noise, or e2q=/tdec= keys in the machine spec")
	case opt.Fidelity == core.FidelityMonteCarlo && req.Size > sim.MaxQubits:
		// The logical width alone rules the simulation out. A routed
		// circuit that spreads a narrower workload over more than
		// sim.MaxQubits physical qubits is still an evaluation failure.
		return nil, fmt.Errorf("size %d exceeds the %d qubits noise_model montecarlo can simulate", req.Size, sim.MaxQubits)
	}
	c, err := experiments.BenchmarkCircuit(req.Workload, req.Size, req.Seed)
	if err != nil {
		return nil, fmt.Errorf("workload: %v", err)
	}
	return &experiments.CellJob{Workload: req.Workload, Size: req.Size, Machine: m, Circuit: c, Options: opt}, nil
}

// decodeRequest decodes a JSON request body, refusing unknown fields.
func decodeRequest(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// handleEvaluate serves POST /evaluate: validate, content-address, and run
// through the deduplicating, admission-controlled evaluate path. The
// response is the core.Metrics JSON — byte-identical across cold, warm,
// and deduplicated serves because the value is the same cached struct.
func (s *Server) handleEvaluate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST only")
		return
	}
	var req EvaluateRequest
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, maxEvaluateBodyBytes), &req); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return
	}
	job, err := buildEvaluate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()
	met, err := s.evaluate(ctx, true, job)
	if err != nil {
		s.writeEvaluateError(w, err)
		return
	}
	writeJSON(w, met)
}

// writeEvaluateError maps evaluation failures onto the HTTP surface:
// shedding → 429, draining → 503 (both retryable, with Retry-After),
// deadline → 504, contained panic or any other evaluation failure → 500.
func (s *Server) writeEvaluateError(w http.ResponseWriter, err error) {
	var perr *par.PanicError
	switch {
	case errors.Is(err, errShed):
		writeError(w, http.StatusTooManyRequests, shedRetryAfter, "%v", err)
	case errors.Is(err, errDraining):
		writeError(w, http.StatusServiceUnavailable, drainRetryAfter, "%v", err)
	case errors.Is(err, context.DeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, 0, "evaluation deadline exceeded")
	case errors.As(err, &perr):
		writeError(w, http.StatusInternalServerError, 0, "evaluation panicked: %v", perr.Value)
	default:
		writeError(w, http.StatusInternalServerError, 0, "evaluation failed: %v", err)
	}
}

// handleHealthz reports process liveness: 200 as long as the process can
// serve HTTP at all, even degraded or draining — liveness probes must not
// restart a server that is merely running without its disk tier.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness for full-fidelity service: 503 while
// draining (stop routing new work here) and 503 while the cache's disk
// tier is quarantined (the server still answers — memory-only — but a
// load balancer should prefer a healthy replica).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	var reasons []string
	if s.draining.Load() {
		reasons = append(reasons, "draining")
	}
	if s.store.Snapshot().Degraded {
		reasons = append(reasons, "degraded: disk cache tier quarantined, serving memory-only")
	}
	if len(reasons) > 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
		for _, reason := range reasons {
			fmt.Fprintln(w, reason)
		}
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.writeMetrics(w, s.store.Snapshot(), gauges{
		queued:     s.queued.Load(),
		queueLimit: s.queueLimit,
		draining:   s.draining.Load(),
	})
}
