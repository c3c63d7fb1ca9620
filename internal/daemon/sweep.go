package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync/atomic"
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
// experiments.SweepSpec knob. Cell seeds derive from (ID, workload, size,
// machine name, Seed) exactly as in a local sweep, so a request mirroring
// a figure spec produces byte-identical metrics. CellTimeoutMS bounds each
// cell's runtime without entering any cache key or journal identity.
type SweepRequest struct {
	ID                string   `json:"id"`
	Kind              string   `json:"kind"` // "swaps" or "codesign"
	Machines          string   `json:"machines"`
	Workloads         []string `json:"workloads"`
	Sizes             []int    `json:"sizes"`
	Seed              int64    `json:"seed"`
	Trials            int      `json:"trials,omitempty"`
	Router            string   `json:"router,omitempty"`
	Profile           bool     `json:"profile,omitempty"`
	ProfileIterations int      `json:"profile_iterations,omitempty"`
	CellTimeoutMS     int64    `json:"cell_timeout_ms,omitempty"`
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

// parseKind maps the wire kind name to experiments.SweepKind.
func parseKind(name string) (experiments.SweepKind, error) {
	switch name {
	case "swaps":
		return experiments.SwapCounts, nil
	case "codesign":
		return experiments.Codesign, nil
	default:
		return 0, fmt.Errorf("unknown kind %q: want swaps or codesign", name)
	}
}

// SpecFromRequest reconstructs the experiments.SweepSpec a SweepRequest
// describes. Shared by server and client: the server evaluates under it,
// the client enumerates its Cells to assemble streamed results into
// Series, and because both sides build it from the same wire data they
// agree on cell order, seeds, and labels without further coordination.
func SpecFromRequest(req SweepRequest) (experiments.SweepSpec, error) {
	var spec experiments.SweepSpec
	kind, err := parseKind(req.Kind)
	if err != nil {
		return spec, err
	}
	if req.Machines == "" {
		return spec, fmt.Errorf("missing machines spec list")
	}
	ms, err := experiments.MachinesFromSpecs(req.Machines)
	if err != nil {
		return spec, fmt.Errorf("machines: %v", err)
	}
	if len(req.Workloads) == 0 {
		return spec, fmt.Errorf("missing workloads")
	}
	if len(req.Sizes) == 0 {
		return spec, fmt.Errorf("missing sizes")
	}
	for _, size := range req.Sizes {
		if size < 2 {
			return spec, fmt.Errorf("size %d too small (workloads need ≥ 2 qubits)", size)
		}
	}
	if req.Trials < 0 {
		return spec, fmt.Errorf("trials must be ≥ 0, got %d", req.Trials)
	}
	rk, err := parseRouter(req.Router)
	if err != nil {
		return spec, err
	}
	spec = experiments.SweepSpec{
		ID:        req.ID,
		Kind:      kind,
		Machines:  ms,
		Workloads: req.Workloads,
		Sizes:     req.Sizes,
	}
	spec.Seed = req.Seed
	spec.Trials = req.Trials
	spec.Router = rk
	spec.ProfileGuided = req.Profile
	spec.ProfileIterations = req.ProfileIterations
	return spec, nil
}

// sweepJournalKey content-addresses a sweep's identity for its journal
// file name: everything that determines the cells' values, nothing that
// only bounds runtime (CellTimeoutMS). It reads the validated spec, not
// the raw request, so spellings the server evaluates identically share a
// journal: the router by kind ("" and "stochastic" are one router), the
// trial count as every cell runs it (0 resolves to the mode default), and
// the profile iteration count only in guided mode and only above 1 —
// EvaluateKey's rule that 0 and 1 are the same single reweight step —
// and each machine by its canonical arch spec, so key order and spacing
// inside a spec do not matter. Two clients POSTing the same sweep share
// one journal; a changed seed or machine list gets a fresh one.
func sweepJournalKey(req SweepRequest, spec experiments.SweepSpec) cache.Key {
	// SpecFromRequest guarantees a machine and a workload, so the zero
	// cell resolves; only its Trials is read. It parsed the machine list
	// too, so parsing it again cannot fail.
	trials := spec.CellOptions(experiments.SweepCell{}).Trials
	machines, _ := arch.ParseList(req.Machines)
	h := cache.NewHasher(sweepJournalDomain)
	h.WriteString(spec.ID)
	h.WriteInt(int64(spec.Kind))
	h.WriteInt(int64(len(machines)))
	for _, a := range machines {
		h.WriteString(a.String())
	}
	h.WriteInt(int64(len(spec.Workloads)))
	for _, w := range spec.Workloads {
		h.WriteString(w)
	}
	h.WriteInt(int64(len(spec.Sizes)))
	for _, s := range spec.Sizes {
		h.WriteInt(int64(s))
	}
	h.WriteInt(spec.Seed)
	h.WriteInt(int64(trials))
	h.WriteInt(int64(spec.Router))
	if spec.ProfileGuided {
		h.WriteInt(1)
		if spec.ProfileIterations > 1 {
			h.WriteInt(int64(spec.ProfileIterations))
		}
	}
	return h.Sum()
}

// handleSweep serves POST /sweep: validate the whole request up front
// (400 before any streaming), then stream one NDJSON SweepEvent per cell
// in the fixed Cells order as evaluations complete on the shared worker
// pool, closing with a summary event. Cell failures are confined: a
// panicking or failing cell becomes that cell's error event and the sweep
// continues — the daemon is always a tolerant evaluator; the client
// decides whether partial results are acceptable. If the server drains
// mid-sweep, undispatched cells are skipped (not failed), in-flight cells
// finish, and the journal is synced before the summary goes out.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, 0, "POST only")
		return
	}
	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxEvaluateBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
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
	var journal *experiments.Journal
	if s.cfg.JournalDir != "" {
		path := filepath.Join(s.cfg.JournalDir, sweepJournalKey(req, spec).String()+".journal")
		journal, err = experiments.OpenJournal(path)
		if err != nil {
			// A broken journal degrades to recomputing, never to refusing
			// the sweep: log and run journal-less.
			s.logf("daemon: sweep journal %s unusable, recomputing: %v", path, err)
			journal = nil
		} else {
			defer journal.Close()
		}
	}
	cellTimeout := s.requestTimeout(req.CellTimeoutMS)
	cells := spec.Cells()
	results := make([]*SweepCellResult, len(cells))
	ready := make([]chan struct{}, len(cells))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	// Bounded fan-out: at most slot-count workers claim cells from a
	// shared counter. Admission happens per fill inside evaluate (blocking
	// acquire — sweeps are paced, not shed), so journal replays and cache
	// hits stream without waiting for a slot. Every claimed index closes
	// its ready channel exactly once, so the emitter below never hangs.
	var next atomic.Int64
	workers := cap(s.slots)
	if workers > len(cells) {
		workers = len(cells)
	}
	if workers < 1 {
		workers = 1
	}
	done := make(chan struct{}, workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				results[i] = s.runSweepCell(r.Context(), spec, cells[i], cellTimeout, journal)
				close(ready[i])
			}
		}()
	}
	w.Header().Set("Content-Type", ndjsonContentType)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	sum := SweepSummary{Cells: len(cells)}
	for i := range cells {
		<-ready[i]
		res := results[i]
		switch {
		case res.Skipped:
			sum.Skipped++
		case res.Error != "":
			sum.Failed++
		default:
			sum.Completed++
			if res.Resumed {
				sum.Resumed++
			}
		}
		if err := enc.Encode(SweepEvent{Cell: res}); err != nil {
			// Client gone: let remaining workers finish (their results are
			// journaled for the retry) and stop emitting.
			s.logf("daemon: sweep stream broken at cell %d: %v", i, err)
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	for w := 0; w < workers; w++ {
		<-done
	}
	if journal != nil {
		if err := journal.Sync(); err != nil {
			s.logf("daemon: %v", err)
		}
	}
	sum.Draining = s.draining.Load() && sum.Skipped > 0
	enc.Encode(SweepEvent{Done: &sum}) //nolint:errcheck // stream already committed
	if flusher != nil {
		flusher.Flush()
	}
}

// runSweepCell evaluates one sweep cell: journal replay first (no
// evaluation, no hook), then the deduplicating admission-controlled
// evaluate path under the cell's timeout, then journaling the fresh
// result. Failures — including contained panics — land in the cell result
// rather than failing the sweep.
func (s *Server) runSweepCell(ctx context.Context, spec experiments.SweepSpec, cell experiments.SweepCell, cellTimeout time.Duration, journal *experiments.Journal) *SweepCellResult {
	workload := spec.Workloads[cell.Workload]
	m := spec.Machines[cell.Machine]
	res := &SweepCellResult{
		Index:    cell.Index,
		Series:   cell.Series,
		Workload: workload,
		Machine:  m.Name,
		Size:     cell.Size,
	}
	c, err := experiments.BenchmarkCircuit(workload, cell.Size, spec.Seed)
	if err != nil {
		res.Error = err.Error()
		return res
	}
	opt := spec.CellOptions(cell)
	key := m.EvaluateKey(c, opt)
	if journal != nil {
		if met, ok := journal.Lookup(key); ok {
			res.Metrics = &met
			res.Resumed = true
			return res
		}
	}
	cctx, cancel := context.WithTimeout(ctx, cellTimeout)
	defer cancel()
	met, err := s.evaluate(cctx, false, key, m, c, opt, workload, cell.Size)
	if err != nil {
		if errors.Is(err, errDraining) {
			res.Skipped = true
		}
		res.Error = err.Error()
		return res
	}
	if journal != nil {
		if jerr := journal.Record(key, met); jerr != nil {
			s.logf("daemon: %v", jerr)
		}
	}
	res.Metrics = &met
	return res
}
