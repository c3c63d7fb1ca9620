package daemon

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/rng"
)

// Client default retry policy: the same shape as the cache disk tier's
// (cache.WithRetry) — a retry budget with exponentially growing,
// seeded-jitter backoff — applied to the transient failures of a remote
// evaluation service: connection errors, 429 shedding, 503 draining.
const (
	DefaultClientRetries = 3
	DefaultClientBackoff = 100 * time.Millisecond
)

// Client is the qcbench-side view of a qcbenchd server: thin, stateless
// request assembly plus seeded-jitter retry. Results are the server's
// verbatim core.Metrics, so a remote sweep's output is byte-identical to
// a local one.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8123".
	BaseURL string

	// HTTPClient defaults to http.DefaultClient. Retries is the extra
	// attempts after the first (negative = none); Backoff the base delay,
	// doubled per attempt with seeded jitter exactly like the cache disk
	// tier's policy (sleep in [d/2, d) for d = Backoff << attempt).
	HTTPClient *http.Client
	Retries    int
	Backoff    time.Duration

	// JitterSeed decorrelates concurrent clients' retry storms; 0 keeps
	// the deterministic default stream.
	JitterSeed uint64

	jitterN uint64 // splitmix64 stream position
}

// NewClient returns a Client for baseURL with the default retry policy.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: baseURL, Retries: DefaultClientRetries, Backoff: DefaultClientBackoff}
}

// backoffWait sleeps the attempt's jittered backoff (cancellable): for
// base delay d = Backoff << attempt, the wait is uniform in [d/2, d) —
// cache.Store's retry shape. A server-provided Retry-After floor (seconds)
// overrides a shorter computed wait.
func (c *Client) backoffWait(ctx context.Context, attempt int, retryAfter time.Duration) error {
	base := c.Backoff
	if base <= 0 {
		base = DefaultClientBackoff
	}
	d := base << attempt
	c.jitterN++
	// The cache's backoff jitter, so client and server shed correlated
	// retries the same way.
	frac := rng.Frac(rng.Scramble(c.JitterSeed + c.jitterN + rng.Gamma))
	wait := d/2 + time.Duration(frac*float64(d/2))
	if retryAfter > wait {
		wait = retryAfter
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// retryable reports whether a response status is worth retrying: shedding
// and draining are transient by design; other errors are deterministic
// (a panic or bad request replays identically).
func retryable(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}

// retryAfterOf parses a response's Retry-After seconds, 0 when absent.
func retryAfterOf(resp *http.Response) time.Duration {
	if resp == nil {
		return 0
	}
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

// decodeErrorBody turns a non-2xx response into an error carrying the
// server's structured message.
func decodeErrorBody(resp *http.Response) error {
	var body errorBody
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &body) == nil && body.Error != "" {
		return fmt.Errorf("daemon: server %d: %s", resp.StatusCode, body.Error)
	}
	return fmt.Errorf("daemon: server %d: %s", resp.StatusCode, bytes.TrimSpace(data))
}

// post sends one JSON POST and hands the successful response to consume,
// retrying transient failures (connection errors, 429, 503, or a consume
// error on a resumable stream) under the backoff policy. consume owns the
// response body.
func (c *Client) post(ctx context.Context, path string, reqBody any, consume func(*http.Response) error) error {
	payload, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("daemon: encode request: %w", err)
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+path, bytes.NewReader(payload))
		if err != nil {
			return fmt.Errorf("daemon: build request: %w", err)
		}
		req.Header.Set("Content-Type", jsonContentType)
		resp, err := hc.Do(req)
		var retryAfter time.Duration
		switch {
		case err != nil:
			lastErr = fmt.Errorf("daemon: %s: %w", path, err)
		case retryable(resp.StatusCode):
			retryAfter = retryAfterOf(resp)
			lastErr = decodeErrorBody(resp)
			resp.Body.Close()
		case resp.StatusCode != http.StatusOK:
			defer resp.Body.Close()
			return decodeErrorBody(resp)
		default:
			cerr := consume(resp)
			resp.Body.Close()
			if cerr == nil {
				return nil
			}
			lastErr = cerr
			var retry *retryableError
			if !errors.As(cerr, &retry) {
				return cerr
			}
		}
		if attempt >= c.Retries {
			return lastErr
		}
		if werr := c.backoffWait(ctx, attempt, retryAfter); werr != nil {
			return lastErr
		}
	}
}

// retryableError marks a consume failure (e.g. a sweep stream cut
// mid-flight) as safe to retry with a fresh request.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

// Evaluate runs one remote evaluation and returns the server's metrics.
func (c *Client) Evaluate(ctx context.Context, req EvaluateRequest) (core.Metrics, error) {
	var met core.Metrics
	err := c.post(ctx, evaluatePath, req, func(resp *http.Response) error {
		if err := json.NewDecoder(resp.Body).Decode(&met); err != nil {
			return &retryableError{fmt.Errorf("daemon: decode metrics: %w", err)}
		}
		return nil
	})
	return met, err
}

// SweepResult is a completed (or partially completed) remote sweep: the
// spec the request describes, cell results indexed by its fixed cell
// order, and the server's final accounting.
type SweepResult struct {
	Spec    experiments.SweepSpec
	Cells   []*SweepCellResult
	Summary SweepSummary
}

// Sweep streams one remote sweep, assembling cells by index. A stream cut
// mid-flight retries the whole request — the server's journal makes the
// retry replay finished cells instead of recomputing them, and later
// attempts overwrite earlier ones index-wise, so a stitched-together
// result is identical to a single clean stream.
func (c *Client) Sweep(ctx context.Context, req SweepRequest) (*SweepResult, error) {
	spec, err := SpecFromRequest(req)
	if err != nil {
		return nil, fmt.Errorf("daemon: %w", err)
	}
	res := &SweepResult{Spec: spec, Cells: make([]*SweepCellResult, len(spec.Cells()))}
	err = c.post(ctx, sweepPath, req, func(resp *http.Response) error {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
		sawDone := false
		for sc.Scan() {
			var ev SweepEvent
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				return &retryableError{fmt.Errorf("daemon: bad sweep event: %w", err)}
			}
			switch {
			case ev.Cell != nil:
				if ev.Cell.Index < 0 || ev.Cell.Index >= len(res.Cells) {
					return fmt.Errorf("daemon: sweep cell index %d out of range [0,%d)", ev.Cell.Index, len(res.Cells))
				}
				res.Cells[ev.Cell.Index] = ev.Cell
			case ev.Done != nil:
				res.Summary = *ev.Done
				sawDone = true
			}
		}
		if err := sc.Err(); err != nil {
			return &retryableError{fmt.Errorf("daemon: sweep stream: %w", err)}
		}
		if !sawDone {
			return &retryableError{fmt.Errorf("daemon: sweep stream ended without summary")}
		}
		if res.Summary.Skipped > 0 {
			// The server drained mid-sweep; a fresh attempt against a
			// restarted server resumes from its journal.
			return &retryableError{fmt.Errorf("daemon: sweep incomplete: %d cells skipped (server draining)", res.Summary.Skipped)}
		}
		return nil
	})
	return res, err
}

// RunSweep runs spec on the server the way spec.RunContext runs it
// locally: the request is NewSweepRequest(spec, machines), spec.Deadline
// bounds the whole call, and spec's Assemble turns the streamed cells into
// the result. A remote run therefore returns the Series and the error,
// tolerant or fail-fast, of a local run of spec.
func (c *Client) RunSweep(ctx context.Context, spec experiments.SweepSpec, machines string) ([]experiments.Series, error) {
	if spec.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Deadline)
		defer cancel()
	}
	res, err := c.Sweep(ctx, NewSweepRequest(spec, machines))
	if err != nil {
		return nil, err
	}
	outcomes := make([]experiments.CellOutcome, len(res.Cells))
	for i, cell := range res.Spec.Cells() {
		outcomes[i].SweepCell = cell
		switch cr := res.Cells[i]; {
		case cr != nil && cr.Metrics != nil:
			outcomes[i].Metrics, outcomes[i].Replayed = *cr.Metrics, cr.Resumed
		case cr != nil && cr.Error != "":
			outcomes[i].Err = errors.New(cr.Error)
		default:
			outcomes[i].Err = errors.New("cell result missing from stream")
		}
	}
	remote := res.Spec
	remote.Tolerant = spec.Tolerant
	return remote.Assemble(outcomes)
}
