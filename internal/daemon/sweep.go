package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
)

// SweepRequest is the /sweep wire request: a complete, self-contained
// description of one figure-style sweep. Machines travel as a declarative
// arch spec list (the experiments.MachinesFromSpecs grammar) so the
// request is plain data; every other field maps onto the corresponding
// experiments.SweepSpec field (SpecFromRequest, and NewSweepRequest back).
// Cell seeds derive from (ID, workload, size, machine name, Seed) exactly
// as in a local sweep, so a request mirroring a figure spec produces
// byte-identical metrics. CellTimeoutMS bounds each cell's runtime without
// entering any cache key or journal identity.
type SweepRequest struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"` // "swaps" or "codesign"
	Machines  string   `json:"machines"`
	Workloads []string `json:"workloads"`
	Sizes     []int    `json:"sizes"`
	Seed      int64    `json:"seed"`
	Trials    int      `json:"trials,omitempty"`
	Knobs
	CellTimeoutMS int64 `json:"cell_timeout_ms,omitempty"`
}

// SweepCellResult is one streamed cell outcome. Exactly one of Metrics,
// Error, or Skipped is meaningful: a completed cell carries Metrics (with
// Resumed set when it replayed from the journal), a failed cell carries
// its error confined to that cell, and a skipped cell was never attempted
// because the server began draining.
type SweepCellResult struct {
	Index    int           `json:"index"`
	Series   int           `json:"series"`
	Workload string        `json:"workload"`
	Machine  string        `json:"machine"`
	Size     int           `json:"size"`
	Metrics  *core.Metrics `json:"metrics,omitempty"`
	Error    string        `json:"error,omitempty"`
	Skipped  bool          `json:"skipped,omitempty"`
	Resumed  bool          `json:"resumed,omitempty"`
}

// SweepSummary terminates the stream with the sweep's accounting. A
// Draining summary means the server was asked to stop mid-sweep: finished
// cells are journaled, and re-POSTing the identical request after restart
// resumes from where this stream ended.
type SweepSummary struct {
	Cells     int  `json:"cells"`
	Completed int  `json:"completed"`
	Failed    int  `json:"failed"`
	Skipped   int  `json:"skipped"`
	Resumed   int  `json:"resumed"`
	Draining  bool `json:"draining,omitempty"`
}

// SweepEvent is one NDJSON line of the /sweep stream: cell events in the
// fixed Cells order, then exactly one done event.
type SweepEvent struct {
	Cell *SweepCellResult `json:"cell,omitempty"`
	Done *SweepSummary    `json:"done,omitempty"`
}

// SpecFromRequest reconstructs the experiments.SweepSpec a SweepRequest
// describes. Shared by server and client: the server evaluates under it,
// the client enumerates its Cells to assemble streamed results into
// Series, and because both sides build it from the same wire data they
// agree on cell order, seeds, and labels without further coordination.
func SpecFromRequest(req SweepRequest) (experiments.SweepSpec, error) {
	spec, err := req.spec()
	if err != nil {
		return spec, err
	}
	if spec.Machines, err = experiments.MachinesFromSpecs(req.Machines); err != nil {
		return spec, fmt.Errorf("machines: %v", err)
	}
	return spec, nil
}

// spec validates and converts everything in req but its machine list,
// which it only requires to be present.
func (req SweepRequest) spec() (experiments.SweepSpec, error) {
	var spec experiments.SweepSpec
	kind, err := experiments.KindNames.Parse("kind", req.Kind)
	if err != nil {
		return spec, err
	}
	small := slices.IndexFunc(req.Sizes, func(size int) bool { return size < 2 })
	switch {
	case req.Machines == "":
		return spec, fmt.Errorf("missing machines spec list")
	case len(req.Workloads) == 0:
		return spec, fmt.Errorf("missing workloads")
	case len(req.Sizes) == 0:
		return spec, fmt.Errorf("missing sizes")
	case small >= 0:
		return spec, fmt.Errorf("size %d too small (workloads need ≥ 2 qubits)", req.Sizes[small])
	}
	opt, err := req.options(req.Seed, req.Trials)
	if err != nil {
		return spec, err
	}
	opt.CellTimeout = msDuration(req.CellTimeoutMS)
	return experiments.SweepSpec{
		ID:        req.ID,
		Kind:      kind,
		Workloads: req.Workloads,
		Sizes:     req.Sizes,
		Config:    experiments.Config{Options: opt},
	}, nil
}

// NewSweepRequest is SpecFromRequest's inverse, for a spec whose machines
// the spec list machines describes. The cell timeout rounds up to whole
// milliseconds: a sub-millisecond budget must not read as the maximum.
func NewSweepRequest(spec experiments.SweepSpec, machines string) SweepRequest {
	timeoutMS := int64(spec.CellTimeout / time.Millisecond)
	if spec.CellTimeout%time.Millisecond > 0 {
		timeoutMS++
	}
	return SweepRequest{
		ID:            spec.ID,
		Kind:          spec.Kind.String(),
		Machines:      machines,
		Workloads:     spec.Workloads,
		Sizes:         spec.Sizes,
		Seed:          spec.Seed,
		Trials:        spec.Trials,
		Knobs:         knobsOf(spec.Options),
		CellTimeoutMS: timeoutMS,
	}
}

// sweepJournalKey content-addresses a sweep's identity for its journal
// file name: the JSON of the request for the validated spec with its
// options in identity form (core.Options.Identity) and each machine as its
// canonical arch spec, so spellings the server evaluates identically share
// a journal and the cell timeout never enters it. (SpecFromRequest never
// sets Quick, so the identity's default trial count is the cells'.)
func sweepJournalKey(req SweepRequest, spec experiments.SweepSpec) cache.Key {
	// The spec was validated from req, so its machine list parses; a
	// request of strings and numbers always marshals.
	machines, _ := arch.ParseList(req.Machines)
	canon := make([]string, len(machines))
	for i, a := range machines {
		canon[i] = a.String()
	}
	spec.Options = spec.Options.Identity()
	body, _ := json.Marshal(NewSweepRequest(spec, strings.Join(canon, ";")))
	h := cache.NewHasher(sweepJournalDomain)
	h.WriteString(string(body))
	return h.Sum()
}

// handleSweep serves POST /sweep: validate the whole request up front
// (400 before any streaming), then run it on the sweep engine
// (experiments.SweepSpec.Stream) with the server's evaluate, streaming one
// NDJSON SweepEvent per cell in the fixed Cells order and then a summary.
// The daemon is always a tolerant evaluator: a failing cell becomes that
// cell's error event, and the client decides whether partial results are
// acceptable. If the server drains mid-sweep, admission refuses the
// cells still to fill and they stream as skipped. A client that
// disconnects stops dispatch; either way the started cells finish and
// the journal is synced before the handler returns.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST only")
		return
	}
	var req SweepRequest
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, maxEvaluateBodyBytes), &req); err != nil {
		writeError(w, http.StatusBadRequest, 0, "bad request body: %v", err)
		return
	}
	spec, err := SpecFromRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, drainRetryAfter, "%v", errDraining)
		return
	}
	if s.cfg.JournalDir != "" {
		path := filepath.Join(s.cfg.JournalDir, sweepJournalKey(req, spec).String()+".journal")
		journal, err := experiments.OpenJournal(path)
		if err != nil {
			// A broken journal degrades to recomputing, never to refusing
			// the sweep: log and run journal-less.
			s.logf("daemon: sweep journal %s unusable, recomputing: %v", path, err)
		} else {
			defer journal.Close()
			spec.Journal = journal
		}
	}
	// One engine worker per evaluation slot. Admission happens per fill
	// inside evaluate (blocking acquire: sweeps are paced, not shed), so
	// journal replays and cache hits stream without waiting for a slot.
	spec.Tolerant = true
	spec.Parallelism = cap(s.slots)
	spec.CellTimeout = s.requestTimeout(req.CellTimeoutMS)
	eval := func(ctx context.Context, job *experiments.CellJob) (core.Metrics, error) {
		return s.evaluate(ctx, false, job)
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	send := func(ev SweepEvent) error {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	sum := SweepSummary{Cells: len(spec.Cells())}
	err = spec.Stream(r.Context(), eval, func(o experiments.CellOutcome) error {
		res := &SweepCellResult{
			Index:    o.Index,
			Series:   o.Series,
			Workload: spec.Workloads[o.Workload],
			Machine:  spec.Machines[o.Machine].Name,
			Size:     o.Size,
		}
		switch {
		case errors.Is(o.Err, errDraining):
			res.Error, res.Skipped = o.Err.Error(), true
			sum.Skipped++
		case o.Err != nil:
			res.Error = o.Err.Error()
			sum.Failed++
		default:
			res.Metrics, res.Resumed = &o.Metrics, o.Replayed
			sum.Completed++
			if o.Replayed {
				sum.Resumed++
			}
		}
		return send(SweepEvent{Cell: res})
	})
	if err := spec.Journal.Sync(); err != nil {
		s.logf("daemon: %v", err)
	}
	switch {
	case err != nil && sum.Completed+sum.Failed+sum.Skipped == 0:
		// Nothing streamed: the request's circuits cannot be generated.
		writeError(w, http.StatusBadRequest, 0, "%v", err)
		return
	case err != nil:
		s.logf("daemon: sweep stream broken: %v", err)
		return
	}
	sum.Draining = s.draining.Load() && sum.Skipped > 0
	send(SweepEvent{Done: &sum}) //nolint:errcheck // the client is gone either way
}
