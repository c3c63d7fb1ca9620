package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/experiments"
	"repro/internal/par"
	"repro/internal/workloads"
)

// The daemon-warm working set: every registry machine of the Fig. 13
// (16–20 qubit) and Fig. 14 (84 qubit) comparison sets, all six circuits,
// at several widths. The memory tier holds a quarter of it, so most hits
// come from the disk tier and promote an entry into memory, evicting one.
var (
	daemonWidths16 = []int{8, 12, 16}
	daemonWidths84 = []int{16, 32}
)

const (
	daemonTrials     = 5
	daemonMemDivisor = 4
	rateWindow       = time.Second
)

// daemonClients is how many closed-loop clients send requests. One client
// leaves the second core to the server's own goroutines and the garbage
// collector. With two, both cores are saturated, and a busy core holds up
// requests queued behind it: with a spinning process on one core, two
// clients lost half their throughput and p99 rose 2.4x, while one client
// kept its throughput and p99 rose a third.
const daemonClients = 1

// wsKey is one working-set request and the response the server gave it
// when the working set was prefilled.
type wsKey struct {
	req  daemon.EvaluateRequest
	body []byte
	resp []byte
}

// workingSet builds the working-set requests for a seed.
func workingSet(seed int64) ([]wsKey, error) {
	var ws []wsKey
	for _, set := range []struct {
		fig    int
		widths []int
	}{{13, daemonWidths16}, {14, daemonWidths84}} {
		list, err := experiments.FigMachineSpecs(set.fig)
		if err != nil {
			return nil, err
		}
		for _, spec := range strings.Split(list, ";") {
			for _, w := range workloads.Names() {
				for _, n := range set.widths {
					req := daemon.EvaluateRequest{Machine: spec, Workload: w, Size: n, Seed: seed, Trials: daemonTrials}
					body, err := json.Marshal(req)
					if err != nil {
						return nil, err
					}
					ws = append(ws, wsKey{req: req, body: body})
				}
			}
		}
	}
	return ws, nil
}

// keyMix returns client c's seeded stream of working-set indices: the
// same seed and client always draw the same keys in the same order.
func keyMix(seed int64, c, n int) func() int {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
	return func() int { return rng.Intn(n) }
}

// server is an in-process qcbenchd on a loopback port.
type server struct {
	url  string
	dir  string
	stop func() error
}

func startServer(dir string, entries int) (*server, error) {
	srv, err := daemon.New(daemon.Config{
		CacheEntries: entries,
		CacheDir:     dir,
		Parallelism:  workers,
		Logf:         func(string, ...any) {},
	})
	if err != nil {
		return nil, err
	}
	addr, err := srv.Listen()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx) }()
	return &server{url: "http://" + addr, dir: dir, stop: func() error {
		cancel()
		return <-done
	}}, nil
}

// close stops the server, waits for it, and removes its disk tier.
func (s *server) close() error {
	err := s.stop()
	if rerr := os.RemoveAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// post sends one /evaluate request and returns the response body.
func post(ctx context.Context, hc *http.Client, url string, body []byte) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/evaluate", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// scrape reads the server's /metrics into a name{labels} → value map.
func scrape(ctx context.Context, hc *http.Client, url string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// Metric names read from /metrics.
const (
	mMemHits   = "qcbenchd_cache_mem_hits_total"
	mDiskHits  = "qcbenchd_cache_disk_hits_total"
	mMisses    = "qcbenchd_cache_misses_total"
	mFills     = "qcbenchd_cache_fills_total"
	mEvictions = "qcbenchd_cache_evictions_total"
	mSheds     = "qcbenchd_sheds_total"
	mReqSum    = `qcbenchd_request_seconds_sum{endpoint="evaluate"}`
	mReqCount  = `qcbenchd_request_seconds_count{endpoint="evaluate"}`
)

// clientRun is what the closed-loop clients measured.
type clientRun struct {
	lat       []float64 // ms, per completed request
	done      []time.Duration
	attempted int
	failed    int
	perKey    []int // requests per working-set key
	wall      time.Duration
	errs      []string
}

// clients runs daemonClients closed-loop clients for d: each sends its next
// request only when the previous one has completed, drawing keys from its
// keyMix stream. Every response must equal the prefill response for its
// key. With a tracer, each request is preceded by the request-building
// calls the server makes (spec parse, circuit generation, key, cache
// lookup on probe), each in its own span.
func clients(ctx context.Context, hc *http.Client, url string, ws []wsKey, seed int64, d time.Duration, tr *tracer, probe *requestProbe) clientRun {
	runs := make([]clientRun, daemonClients)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := range runs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := &runs[c]
			r.perKey = make([]int, len(ws))
			next := keyMix(seed, c, len(ws))
			for time.Now().Before(deadline) {
				i := next()
				if tr != nil {
					if err := probe.build(tr, ws[i].req); err != nil {
						r.attempted++
						r.failed++
						r.errs = append(r.errs, err.Error())
						continue
					}
				}
				sp := tr.begin("daemon.request", -1)
				t0 := time.Now()
				body, code, err := post(ctx, hc, url, ws[i].body)
				t1 := time.Now()
				tr.end(sp)
				r.attempted++
				r.perKey[i]++
				switch {
				case err != nil:
					r.failed++
					r.errs = append(r.errs, err.Error())
				case code != http.StatusOK:
					r.failed++
					r.errs = append(r.errs, fmt.Sprintf("HTTP %d: %s", code, bytes.TrimSpace(body)))
				case !bytes.Equal(body, ws[i].resp):
					r.failed++
					r.errs = append(r.errs, fmt.Sprintf("%+v: response differs from the prefill response", ws[i].req))
				default:
					r.lat = append(r.lat, float64(t1.Sub(t0))/float64(time.Millisecond))
					r.done = append(r.done, t1.Sub(start))
				}
			}
		}(c)
	}
	wg.Wait()
	var all clientRun
	all.wall = time.Since(start)
	all.perKey = make([]int, len(ws))
	for _, r := range runs {
		all.lat = append(all.lat, r.lat...)
		all.done = append(all.done, r.done...)
		all.attempted += r.attempted
		all.failed += r.failed
		all.errs = append(all.errs, r.errs...)
		for i, n := range r.perKey {
			all.perKey[i] += n
		}
	}
	return all
}

// percentiles returns the median over whole rateWindow windows of each
// window's p50 and p99 latency, so that a burst of host noise within a run
// moves a few windows rather than the run's figures. Windows with too few
// requests for a p99 are skipped; ok is false when none is left.
func (r clientRun) percentiles() (p50, p99 float64, ok bool) {
	wins := make([][]float64, int(r.wall/rateWindow))
	for i, t := range r.done {
		if w := int(t / rateWindow); w < len(wins) {
			wins[w] = append(wins[w], r.lat[i])
		}
	}
	var a, b []float64
	for _, xs := range wins {
		x50, _ := percentile(xs, 0.5)
		if x99, ok := percentile(xs, 0.99); ok {
			a, b = append(a, x50), append(b, x99)
		}
	}
	return median(a), median(b), len(b) > 0
}

// rate is the median over whole rateWindow windows of completed requests
// per second.
func (r clientRun) rate() float64 {
	n := int(r.wall / rateWindow)
	if n == 0 {
		return float64(len(r.done)) / r.wall.Seconds()
	}
	counts := make([]float64, n)
	for _, t := range r.done {
		if w := int(t / rateWindow); w < n {
			counts[w]++
		}
	}
	for i := range counts {
		counts[i] /= rateWindow.Seconds()
	}
	return median(counts)
}

// buildLocal builds a request's machine, circuit and options the way
// qcbenchd does for /evaluate, with a span around each public call.
func buildLocal(tr *tracer, req daemon.EvaluateRequest) (core.Machine, *circuit.Circuit, core.Options, error) {
	sp := tr.begin("arch.build", -1)
	m, err := core.FromSpec(req.Machine)
	tr.end(sp)
	if err != nil {
		return core.Machine{}, nil, core.Options{}, err
	}
	sp = tr.begin("workloads.gen", -1)
	c, err := experiments.BenchmarkCircuit(req.Workload, req.Size, req.Seed)
	tr.end(sp)
	return m, c, core.Options{Seed: req.Seed, Trials: req.Trials, Parallelism: 1}, err
}

// requestProbe times, for a traced run, the calls the server makes to
// build and look up a request, against a cache of its own with the
// server's shape, so the server's cache sees exactly the untraced traffic.
type requestProbe struct {
	mu    sync.Mutex
	store *core.MetricsCache
}

func (p *requestProbe) build(tr *tracer, req daemon.EvaluateRequest) error {
	m, c, opt, err := buildLocal(tr, req)
	if err != nil {
		return err
	}
	sp := tr.begin("core.key", -1)
	key := m.EvaluateKey(c, opt)
	tr.end(sp)

	// Clients' lookups must not interleave, or the counter delta
	// that tells a memory hit from a disk hit would mix them up.
	p.mu.Lock()
	defer p.mu.Unlock()
	before := p.store.Snapshot()
	sp = tr.begin("cache.get", -1)
	_, ok := p.store.Get(key)
	tr.end(sp)
	after := p.store.Snapshot()
	switch {
	case !ok:
		return fmt.Errorf("probe cache miss for %+v", req)
	case after.MemHits > before.MemHits:
		tr.rename(sp, "cache.mem_get")
	default:
		tr.rename(sp, "cache.disk_get")
	}
	return nil
}

// runDaemonWarm serves a prefilled working set to closed-loop clients.
func runDaemonWarm(ctx context.Context, cfg config) (*report, error) {
	rep := newReport()
	ws, err := workingSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	entries := len(ws) / daemonMemDivisor
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: workers, DisableCompression: true}, Timeout: time.Minute}
	defer hc.CloseIdleConnections()

	// Set-up: start a server with an empty cache and prefill the working
	// set through it (every request a cold evaluation), setupReps times;
	// the last server is the one measured.
	var srv *server
	setups := make([]float64, setupReps)
	for k := range setups {
		if srv != nil {
			if err := srv.close(); err != nil {
				return nil, err
			}
		}
		dir, err := os.MkdirTemp(cfg.outDir, "daemon-cache-")
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		srv, err = startServer(dir, entries)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		// The 84-qubit keys come last in ws and cost the most to compute:
		// prefill them first so the two workers finish together.
		err = par.ForEachCtx(ctx, len(ws), workers, func(j int) error {
			i := len(ws) - 1 - j
			body, code, err := post(ctx, hc, srv.url, ws[i].body)
			if err != nil {
				return err
			}
			if code != http.StatusOK {
				return fmt.Errorf("prefill %+v: HTTP %d: %s", ws[i].req, code, bytes.TrimSpace(body))
			}
			ws[i].resp = body
			return nil
		})
		setups[k] = time.Since(t0).Seconds()
		if err != nil {
			srv.close()
			return nil, err
		}
	}
	defer srv.close()

	var swaps, twoQ int
	var pulse float64
	for _, k := range ws {
		var m core.Metrics
		if err := json.Unmarshal(k.resp, &m); err != nil {
			return nil, fmt.Errorf("decoding %+v: %w", k.req, err)
		}
		swaps += m.TotalSwaps
		twoQ += m.Total2Q
		pulse += m.PulseDuration
	}
	rep.set("swaps_total", float64(swaps))
	rep.set("two_q_total", float64(twoQ))
	rep.set("pulse_total", pulse)
	rep.info("working set %d keys, memory tier %d entries", len(ws), entries)

	var run clientRun
	var m0, m1 map[string]float64
	if !cfg.trace {
		if m0, err = scrape(ctx, hc, srv.url); err != nil {
			return nil, err
		}
		ms0 := readMem()
		mem := startMemSampler()
		run = clients(ctx, hc, srv.url, ws, cfg.seed, cfg.seconds, nil, nil)
		rep.set("mem_held_mb", mem.medianMB())
		ms1 := readMem()
		if m1, err = scrape(ctx, hc, srv.url); err != nil {
			return nil, err
		}
		p50, p99, ok := run.percentiles()
		if !ok {
			return nil, fmt.Errorf("no %v window completed the %d requests a p99 needs", rateWindow, minSamplesFor(0.99))
		}
		rep.set("setup_s", median(setups))
		rep.set("evals_per_s", run.rate())
		rep.set("p50_ms", p50)
		rep.set("p99_ms", p99)
		rep.info("timed %d requests in %.2fs; %s", len(run.lat), run.wall.Seconds(), memDelta(ms0, ms1))
	} else {
		if m0, err = scrape(ctx, hc, srv.url); err != nil {
			return nil, err
		}
		untraced := clients(ctx, hc, srv.url, ws, cfg.seed, cfg.seconds/2, nil, nil)
		probe := &requestProbe{}
		pdir, err := os.MkdirTemp(cfg.outDir, "daemon-probe-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(pdir)
		if probe.store, err = core.NewMetricsCache(entries, pdir); err != nil {
			return nil, err
		}
		for _, k := range ws {
			m, c, opt, err := buildLocal(nil, k.req)
			if err != nil {
				return nil, err
			}
			var met core.Metrics
			if err := json.Unmarshal(k.resp, &met); err != nil {
				return nil, err
			}
			probe.store.Put(m.EvaluateKey(c, opt), met)
		}
		tr := newTracer()
		ms0 := readMem()
		run = clients(ctx, hc, srv.url, ws, cfg.seed, cfg.seconds/2, tr, probe)
		ms1 := readMem()
		if m1, err = scrape(ctx, hc, srv.url); err != nil {
			return nil, err
		}
		spans := tr.snapshot()
		if err := writeSpans(cfg.tracePath(), spans); err != nil {
			return nil, err
		}
		serverMS := 1e3 * (m1[mReqSum] - m0[mReqSum]) / (m1[mReqCount] - m0[mReqCount])
		rep.set("workloads.gen_us", meanMicros(spans, "workloads.gen"))
		rep.set("arch.build_us", meanMicros(spans, "arch.build"))
		rep.set("core.key_us", meanMicros(spans, "core.key"))
		rep.set("cache.mem_get_us", meanMicros(spans, "cache.mem_get"))
		rep.set("cache.disk_get_us", meanMicros(spans, "cache.disk_get"))
		rep.set("daemon.server_ms", serverMS)
		rep.set("daemon.http_us", meanMicros(spans, "daemon.request")-1e3*serverMS)
		rep.set("runtime.gc_pause_ms", float64(ms1.pauseNs-ms0.pauseNs)/1e6)
		rep.set("runtime.alloc_mb", float64(ms1.alloc-ms0.alloc)/(1<<20))
		layerShares(rep, layerSelf(spans), time.Duration(daemonClients)*run.wall)
		rep.set("trace.evals_per_s", run.rate())
		rep.set("trace.overhead_evals_per_s", run.rate()-untraced.rate())

		// The gate covers both halves.
		run.attempted += untraced.attempted
		run.failed += untraced.failed
		run.errs = append(untraced.errs, run.errs...)
		for i, n := range untraced.perKey {
			run.perKey[i] += n
		}
	}

	d := func(name string) float64 { return m1[name] - m0[name] }
	lookups := d(mMemHits) + d(mDiskHits) + d(mMisses)
	rep.set("cache.mem_hit_ratio", d(mMemHits)/lookups)
	rep.set("cache.disk_hit_ratio", d(mDiskHits)/lookups)
	rep.set("cache.evictions", d(mEvictions))
	rep.info("server: %.0f lookups, %.0f memory hits, %.0f disk hits, %.0f evictions", lookups, d(mMemHits), d(mDiskHits), d(mEvictions))

	rep.attempted = run.attempted
	rep.failed = run.failed
	for i, e := range run.errs {
		if i == 5 {
			rep.info("FAIL … %d more", len(run.errs)-i)
			break
		}
		rep.info("FAIL %s", e)
	}
	if n := d(mFills) + d(mMisses); n != 0 {
		rep.fail("%.0f requests missed the cache during the timed part; every request must be a hit", n)
	}
	if n := d(mSheds); n != 0 {
		rep.fail("%.0f requests were shed", n)
	}
	return rep, gateDaemon(ctx, ws, run.perKey, rep)
}

// gateDaemon evaluates every working-set key locally with
// core.Machine.Evaluate and checks the server's response is byte-identical
// to the local result's JSON. Every request for a key that differs counts
// as failed.
func gateDaemon(ctx context.Context, ws []wsKey, perKey []int, rep *report) error {
	want := make([][]byte, len(ws))
	err := par.ForEachCtx(ctx, len(ws), workers, func(i int) error {
		m, c, opt, err := buildLocal(nil, ws[i].req)
		if err != nil {
			return err
		}
		met, err := m.EvaluateContext(ctx, c, opt)
		if err != nil {
			return err
		}
		b, err := json.Marshal(met)
		want[i] = append(b, '\n')
		return err
	})
	if err != nil {
		return err
	}
	for i := range ws {
		if !bytes.Equal(ws[i].resp, want[i]) {
			rep.failed += max(1, perKey[i])
			rep.info("FAIL %+v: server %s, local %s", ws[i].req, bytes.TrimSpace(ws[i].resp), bytes.TrimSpace(want[i]))
		}
	}
	return nil
}
