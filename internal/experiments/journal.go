package experiments

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/cache"
	"repro/internal/core"
)

// Journal is the sweep's crash-resume log: an append-only text file with
// one line per completed cell — the cell's core.Machine.EvaluateKey in hex,
// a space, and its JSON-encoded core.Metrics. The sweep engine,
// SweepSpec.Stream, consults it before computing each cell and replays
// recorded results verbatim, so a
// run killed mid-sweep and restarted with the same journal file produces
// output byte-identical to an uninterrupted run while recomputing only the
// missing cells. Cells are addressed by the same content hash the Evaluate
// cache uses, so runtime knobs (CellTimeout, Parallelism) never split the
// journal's identity space while semantic inputs (seed, trials, router,
// machine, circuit) always do.
//
// Each record is written with a single O_APPEND write, so concurrent sweep
// workers in one process never interleave partial lines and a crash loses
// at most the line being written (which OpenJournal then tolerates). A nil
// *Journal is valid and inert: Lookup always misses and Record/Close do
// nothing, so callers thread an optional journal without branching.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	seen map[cache.Key]core.Metrics
}

// OpenJournal opens the journal at path, creating it if absent, and
// indexes its existing records for Lookup. A malformed final line without
// a trailing newline — the footprint of a crash mid-append — is dropped
// and overwritten by subsequent appends' lines; a malformed interior line
// means real corruption and fails loudly rather than silently recomputing
// (and re-randomizing nothing — replays are deterministic — but wasting)
// already-finished work.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("experiments: open journal: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("experiments: read journal %s: %w", path, err)
	}
	j := &Journal{f: f, seen: make(map[cache.Key]core.Metrics)}
	complete := strings.HasSuffix(string(data), "\n")
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	for li, line := range lines {
		if line == "" {
			continue
		}
		k, met, perr := parseJournalRecord(line)
		if perr != nil {
			if li == len(lines)-1 && !complete {
				break // torn tail from a crash mid-append; recompute that cell
			}
			f.Close()
			return nil, fmt.Errorf("experiments: journal %s line %d: %w", path, li+1, perr)
		}
		j.seen[k] = met
	}
	return j, nil
}

// parseJournalRecord decodes one "keyhex metricsJSON" line.
func parseJournalRecord(line string) (cache.Key, core.Metrics, error) {
	var k cache.Key
	sp := strings.IndexByte(line, ' ')
	if sp != hex.EncodedLen(len(k)) {
		return k, core.Metrics{}, fmt.Errorf("malformed record (no key/metrics separator)")
	}
	raw, err := hex.DecodeString(line[:sp])
	if err != nil {
		return k, core.Metrics{}, fmt.Errorf("malformed key: %w", err)
	}
	copy(k[:], raw)
	var met core.Metrics
	if err := json.Unmarshal([]byte(line[sp+1:]), &met); err != nil {
		return k, core.Metrics{}, fmt.Errorf("malformed metrics: %w", err)
	}
	return k, met, nil
}

// Lookup returns the recorded metrics of the cell with the given evaluate
// key, if any. Safe on a nil *Journal (always a miss).
func (j *Journal) Lookup(k cache.Key) (core.Metrics, bool) {
	if j == nil {
		return core.Metrics{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	met, ok := j.seen[k]
	return met, ok
}

// Record appends one completed cell to the journal and its in-memory
// index; recording a key that is already present is a no-op, so replayed
// cells never duplicate lines. Safe for concurrent writers — each record
// is one O_APPEND write under the journal lock, so parallel sweep cells
// (or a daemon's concurrent /sweep handlers) never interleave partial
// lines — and safe on a nil *Journal (no-op). Recording after Close is an
// error, not a silent write on a dead handle.
func (j *Journal) Record(k cache.Key, met core.Metrics) error {
	if j == nil {
		return nil
	}
	buf, err := json.Marshal(met)
	if err != nil {
		return fmt.Errorf("experiments: journal encode: %w", err)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("experiments: journal record after Close")
	}
	if _, dup := j.seen[k]; dup {
		return nil
	}
	line := make([]byte, 0, hex.EncodedLen(len(k))+1+len(buf)+1)
	line = append(line, k.String()...)
	line = append(line, ' ')
	line = append(line, buf...)
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("experiments: journal append: %w", err)
	}
	j.seen[k] = met
	return nil
}

// Len reports how many cells the journal currently holds.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.seen)
}

// Sync flushes recorded cells to stable storage, so a drain point (e.g. a
// daemon stopping on SIGTERM) can guarantee the journal survives a
// machine crash, not just a process exit. Safe on a nil or closed
// *Journal (no-op).
func (j *Journal) Sync() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("experiments: journal sync: %w", err)
	}
	return nil
}

// Close syncs and releases the journal's file handle; later Records fail
// and later Closes are no-ops. Taken under the journal lock so a Close
// racing concurrent writers never yanks the handle mid-append. Safe on a
// nil *Journal.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	syncErr := f.Sync()
	if err := f.Close(); err != nil {
		return fmt.Errorf("experiments: journal close: %w", err)
	}
	if syncErr != nil {
		return fmt.Errorf("experiments: journal sync on close: %w", syncErr)
	}
	return nil
}
