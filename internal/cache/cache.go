// Package cache provides the content-addressed result cache behind the
// sweep engine: repeated figure regenerations and overlapping sweeps
// (Figs. 4/11/12 share workloads and machines) re-issue byte-identical
// Evaluate calls, and because every cell's routing seed is a pure function
// of its coordinates (the FNV task-seed scheme in internal/experiments),
// the result of such a call is fully determined by its inputs. A cache
// entry therefore never needs invalidation — the key is a cryptographic
// hash of everything the value depends on, so a stale hit is impossible by
// construction; a changed input is a different key.
//
// Store layers two tiers: a bounded in-memory LRU (always on) and an
// optional on-disk JSON tier (one file per key, written atomically), so a
// warm directory can serve repeated qcbench runs across processes. Do adds
// singleflight-style deduplication: concurrent callers of the same key
// under the parallel sweep engine compute the value once and share it.
//
// The disk tier is fault-tolerant rather than best-effort-and-silent:
// transient read/write failures get a bounded retry with deterministic
// jittered backoff (seeded, so chaos tests replay exactly), and a run of
// consecutive failures trips an error budget that quarantines the tier —
// the store degrades to memory-only instead of hammering a sick disk, and
// a periodic health probe re-enables the tier once it answers again. All
// file I/O goes through the FS interface, so tests inject failing or
// corrupting filesystems without touching the real disk.
package cache

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Key is a content hash identifying one cached computation. Equal keys mean
// equal inputs (up to SHA-256 collisions), so values never expire.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (also the disk-tier file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Hasher accumulates the inputs of a computation into a Key. Every write is
// tagged and length-delimited, so field boundaries are unambiguous:
// WriteString("ab")+WriteString("c") and WriteString("a")+WriteString("bc")
// produce different keys.
type Hasher struct {
	h hash.Hash
}

// NewHasher starts a key derivation under a domain label (e.g.
// "core.Evaluate/v1"); distinct domains can never collide.
func NewHasher(domain string) *Hasher {
	h := &Hasher{h: sha256.New()}
	h.WriteString(domain)
	return h
}

func (h *Hasher) tag(t byte, payload uint64) {
	var buf [9]byte
	buf[0] = t
	binary.BigEndian.PutUint64(buf[1:], payload)
	h.h.Write(buf[:])
}

// WriteString hashes a length-prefixed string field.
func (h *Hasher) WriteString(s string) {
	h.tag('s', uint64(len(s)))
	h.h.Write([]byte(s))
}

// WriteInt hashes a signed integer field.
func (h *Hasher) WriteInt(v int64) { h.tag('i', uint64(v)) }

// WriteUint hashes an unsigned integer field.
func (h *Hasher) WriteUint(v uint64) { h.tag('u', v) }

// WriteFloat hashes a float field by its exact bit pattern.
func (h *Hasher) WriteFloat(f float64) { h.tag('f', math.Float64bits(f)) }

// Sum finalizes the key. The Hasher may keep accumulating afterwards.
func (h *Hasher) Sum() Key {
	var k Key
	copy(k[:], h.h.Sum(nil))
	return k
}

// FS is the file-operation surface the disk tier runs on. The production
// implementation is OSFS; fault-injection tests substitute filesystems that
// fail or corrupt operations on a seeded schedule. WriteFile must publish
// atomically (readers see the old file, no file, or the complete new file —
// never a partial write); dir is the directory to stage temp files in so
// the final rename stays on one filesystem.
type FS interface {
	ReadFile(path string) ([]byte, error)
	WriteFile(dir, path string, data []byte) error
	Remove(path string) error
}

// OSFS is the real-disk FS. WriteFile stages into a "tmp-*" file in dir and
// renames over path, which is atomic on POSIX filesystems.
type OSFS struct{}

// ReadFile implements FS.
func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// WriteFile implements FS with the temp-file-then-rename idiom.
func (OSFS) WriteFile(dir, path string, data []byte) error {
	tmp, err := os.CreateTemp(dir, "tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Atomic publish: readers only ever see absent or complete files.
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Remove implements FS.
func (OSFS) Remove(path string) error { return os.Remove(path) }

// Stats is a snapshot of a Store's counters. MemHits+DiskHits+Dedups are
// requests served without computing; Fills counts computations actually run
// by Do — a warm cache serving a repeated sweep shows a Fills delta of zero.
type Stats struct {
	MemHits     uint64 // Get served from the in-memory LRU
	DiskHits    uint64 // Get served from the disk tier (then promoted)
	Misses      uint64 // Get found nothing in either tier
	Dedups      uint64 // Do calls that joined an in-flight computation
	Fills       uint64 // Do calls that ran the compute function
	Evictions   uint64 // entries dropped by the LRU bound
	DiskErrs    uint64 // disk-tier op failures after retries (cache stays best-effort)
	Retries     uint64 // extra disk-op attempts spent recovering from transient failures
	Quarantines uint64 // times the error budget tripped and the disk tier was benched
	// DegradedServes counts requests answered (memory hit or fresh fill)
	// while the disk tier was quarantined — the work the store kept serving
	// that a fail-hard design would have refused. Always zero for a
	// memory-only store, which has no tier to lose.
	DegradedServes uint64
	Degraded       bool // disk tier currently quarantined (store is memory-only)
	Entries        int  // current in-memory entry count
}

// Hits is the total number of requests served from cache.
func (s Stats) Hits() uint64 { return s.MemHits + s.DiskHits }

// DefaultMaxEntries bounds the in-memory tier when New is given 0.
const DefaultMaxEntries = 1 << 16

// Disk-tier fault-tolerance defaults. An op gets DefaultDiskRetries extra
// attempts with jittered backoff starting at DefaultRetryBackoff; after
// DefaultErrorBudget consecutive op failures the tier quarantines, and a
// health probe every DefaultProbeInterval decides when to re-enable it.
const (
	DefaultDiskRetries   = 2
	DefaultRetryBackoff  = 2 * time.Millisecond
	DefaultErrorBudget   = 4
	DefaultProbeInterval = 2 * time.Second
)

// config collects the New options before they are copied into the store.
type config struct {
	fs         FS
	retries    int
	backoff    time.Duration
	errBudget  int
	probeEvery time.Duration
	jitterSeed uint64
}

// Option customizes a Store at construction time.
type Option func(*config)

// WithFS substitutes the disk tier's filesystem — the fault-injection hook.
func WithFS(fs FS) Option { return func(c *config) { c.fs = fs } }

// WithRetry sets the extra attempts per disk op (0 = fail on first error)
// and the base backoff between them (0 = retry immediately). Backoff grows
// exponentially per attempt with deterministic jitter.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *config) { c.retries = retries; c.backoff = backoff }
}

// WithErrorBudget sets how many consecutive disk-op failures quarantine the
// disk tier; 0 or negative disables quarantine entirely.
func WithErrorBudget(n int) Option { return func(c *config) { c.errBudget = n } }

// WithProbeInterval sets how often a quarantined tier is health-probed
// (0 = probe on every disk access, which tests use to re-enable promptly).
func WithProbeInterval(d time.Duration) Option { return func(c *config) { c.probeEvery = d } }

// WithJitterSeed seeds the deterministic backoff jitter so retry timing is
// reproducible run to run.
func WithJitterSeed(seed uint64) Option { return func(c *config) { c.jitterSeed = seed } }

// Store is a two-tier content-addressed cache. The zero value is not
// usable; construct with New. A nil *Store is a valid no-op cache: Get
// always misses, Put discards, and Do always computes, so callers can
// thread an optional cache without nil checks at every site.
type Store[V any] struct {
	mu    sync.Mutex
	lru   *list.List // front = most recently used
	items map[Key]*list.Element
	max   int
	dir   string // "" = memory-only

	flightMu sync.Mutex
	flight   map[Key]*call[V]

	// Disk-tier fault tolerance (see the FS/Option docs). degraded=true
	// means the tier is quarantined and probeAt holds the UnixNano time of
	// the next allowed health probe; consec counts the current run of op
	// failures toward errBudget.
	fs         FS
	retries    int
	backoff    time.Duration
	errBudget  int
	probeEvery time.Duration
	jitterSeed uint64
	jitterN    atomic.Uint64
	consec     atomic.Int64
	degraded   atomic.Bool
	probeAt    atomic.Int64

	memHits, diskHits, misses atomic.Uint64
	dedups, fills             atomic.Uint64
	evictions, diskErrs       atomic.Uint64
	retriesN, quarantines     atomic.Uint64
	degradedServes            atomic.Uint64
}

type lruEntry[V any] struct {
	key Key
	val V
}

type call[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New builds a store bounded to maxEntries in memory (0 = DefaultMaxEntries)
// with an optional disk tier rooted at dir ("" disables it). The directory
// is created if missing; an unusable directory is an error because a caller
// asking for persistence should not silently lose it. Stale "tmp-*" staging
// files left by a writer killed mid-publish are swept on construction.
func New[V any](maxEntries int, dir string, opts ...Option) (*Store[V], error) {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	cfg := config{
		fs:         OSFS{},
		retries:    DefaultDiskRetries,
		backoff:    DefaultRetryBackoff,
		errBudget:  DefaultErrorBudget,
		probeEvery: DefaultProbeInterval,
		jitterSeed: 1,
	}
	for _, o := range opts {
		o(&cfg)
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("cache: creating disk tier: %w", err)
		}
		sweepStaleTmp(dir)
	}
	s := &Store[V]{
		lru:        list.New(),
		items:      make(map[Key]*list.Element),
		max:        maxEntries,
		dir:        dir,
		flight:     make(map[Key]*call[V]),
		fs:         cfg.fs,
		retries:    cfg.retries,
		backoff:    cfg.backoff,
		errBudget:  cfg.errBudget,
		probeEvery: cfg.probeEvery,
		jitterSeed: cfg.jitterSeed,
	}
	return s, nil
}

// tmpSweepAge is how old a "tmp-*" staging file must be before New treats
// it as debris from a crashed writer. Live writers publish within
// milliseconds, so an hour-old temp file can only be an orphan; the age
// gate keeps New from deleting a concurrent store's in-flight staging file.
const tmpSweepAge = time.Hour

// sweepStaleTmp removes orphaned staging files from an interrupted diskPut
// (process killed between CreateTemp and Rename). Best-effort by design:
// sweep failures never block construction.
func sweepStaleTmp(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-tmpSweepAge)
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "tmp-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		if info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// NewMemory builds a memory-only store and never fails.
func NewMemory[V any](maxEntries int) *Store[V] {
	s, err := New[V](maxEntries, "")
	if err != nil {
		panic("cache: memory-only New cannot fail: " + err.Error())
	}
	return s
}

// Get looks k up in the memory tier, then the disk tier (promoting a disk
// hit into memory). The counters record which tier answered.
func (s *Store[V]) Get(k Key) (V, bool) {
	if s == nil {
		var zero V
		return zero, false
	}
	return s.get(k, true)
}

// get is Get with miss accounting optional, so internal re-checks don't
// double-count a single cold lookup.
func (s *Store[V]) get(k Key, countMiss bool) (V, bool) {
	if v, ok := s.getMem(k); ok {
		return v, true
	}
	if s.dir != "" {
		if v, ok := s.diskGet(k); ok {
			s.diskHits.Add(1)
			s.putMem(k, v)
			return v, true
		}
	}
	if countMiss {
		s.misses.Add(1)
	}
	var zero V
	return zero, false
}

// getMem consults only the in-memory LRU (counted as a memory hit).
func (s *Store[V]) getMem(k Key) (V, bool) {
	s.mu.Lock()
	if el, ok := s.items[k]; ok {
		s.lru.MoveToFront(el)
		v := el.Value.(*lruEntry[V]).val
		s.mu.Unlock()
		s.memHits.Add(1)
		s.noteDegradedServe()
		return v, true
	}
	s.mu.Unlock()
	var zero V
	return zero, false
}

// Put stores k→v in both tiers. Disk failures are counted, not returned:
// the cache is an accelerator, never a correctness dependency.
func (s *Store[V]) Put(k Key, v V) {
	if s == nil {
		return
	}
	s.putMem(k, v)
	if s.dir != "" {
		s.diskPut(k, v)
	}
}

func (s *Store[V]) putMem(k Key, v V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[k]; ok {
		el.Value.(*lruEntry[V]).val = v
		s.lru.MoveToFront(el)
		return
	}
	s.items[k] = s.lru.PushFront(&lruEntry[V]{key: k, val: v})
	for s.lru.Len() > s.max {
		oldest := s.lru.Back()
		s.lru.Remove(oldest)
		delete(s.items, oldest.Value.(*lruEntry[V]).key)
		s.evictions.Add(1)
	}
}

// Do returns the cached value for k, or computes it with fn exactly once —
// concurrent Do calls on the same key (identical sweep cells fanned out by
// internal/par) block on the first caller's computation and share its
// result. Errors are returned to every waiter and never cached.
func (s *Store[V]) Do(k Key, fn func() (V, error)) (V, error) {
	if s == nil {
		return fn()
	}
	if v, ok := s.Get(k); ok {
		return v, nil
	}
	s.flightMu.Lock()
	if c, ok := s.flight[k]; ok {
		s.flightMu.Unlock()
		<-c.done
		if c.err == nil {
			s.dedups.Add(1)
		}
		return c.val, c.err
	}
	// Re-check the memory tier while holding flightMu: a filler publishes
	// to memory (Put → putMem) *before* removing its flight entry, so a
	// caller that missed the fast-path Get above but arrives here after
	// the entry is gone is guaranteed to find the value now — without
	// this, that window would recompute and break the compute-exactly-once
	// guarantee. Memory alone suffices, which keeps disk I/O out of the
	// flightMu critical section.
	if v, ok := s.getMem(k); ok {
		s.flightMu.Unlock()
		return v, nil
	}
	c := &call[V]{done: make(chan struct{})}
	s.flight[k] = c
	s.flightMu.Unlock()
	s.fill(k, c, fn)
	return c.val, c.err
}

// fill runs the computation for an in-flight call. A panicking fn still
// releases waiters — with an error carrying the recovered value so they can
// diagnose what killed the fill, never a zero value posing as success — and
// unregisters the flight entry before the panic propagates unchanged to the
// filler's caller; otherwise every later Do on the key would block on done
// forever.
func (s *Store[V]) fill(k Key, c *call[V], fn func() (V, error)) {
	finish := func() {
		close(c.done)
		s.flightMu.Lock()
		delete(s.flight, k)
		s.flightMu.Unlock()
	}
	defer func() {
		if r := recover(); r != nil {
			c.err = fmt.Errorf("cache: computation for key %s panicked: %v", k, r)
			finish()
			panic(r)
		}
	}()
	c.val, c.err = fn()
	s.fills.Add(1)
	if c.err == nil {
		s.noteDegradedServe()
		s.Put(k, c.val)
	}
	finish()
}

// noteDegradedServe counts one successfully answered request while the
// disk tier is quarantined — the degraded-mode traffic /metrics-style
// consumers watch to size the blast radius of a sick disk.
func (s *Store[V]) noteDegradedServe() {
	if s.dir != "" && s.degraded.Load() {
		s.degradedServes.Add(1)
	}
}

// Stats snapshots the counters. Safe to call concurrently with cache use.
// It is an alias for Snapshot, kept for existing call sites.
func (s *Store[V]) Stats() Stats { return s.Snapshot() }

// Snapshot reads every counter atomically into one Stats value, safe to
// call concurrently with fills, hits, and quarantine transitions — the
// read a metrics endpoint should take instead of loading fields piecemeal
// around racing updates. Each counter is monotone (only Degraded and
// Entries move both ways), so deltas between two snapshots are
// meaningful even under load.
func (s *Store[V]) Snapshot() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	n := s.lru.Len()
	s.mu.Unlock()
	return Stats{
		MemHits:        s.memHits.Load(),
		DiskHits:       s.diskHits.Load(),
		Misses:         s.misses.Load(),
		Dedups:         s.dedups.Load(),
		Fills:          s.fills.Load(),
		Evictions:      s.evictions.Load(),
		DiskErrs:       s.diskErrs.Load(),
		Retries:        s.retriesN.Load(),
		Quarantines:    s.quarantines.Load(),
		DegradedServes: s.degradedServes.Load(),
		Degraded:       s.degraded.Load(),
		Entries:        n,
	}
}

// ---- disk tier ----

func (s *Store[V]) path(k Key) string {
	return filepath.Join(s.dir, k.String()+".json")
}

// probeFile is the scratch name the health probe writes under the cache
// dir; a hex key can never collide with it.
const probeFile = "health-probe"

// diskActive reports whether the disk tier may be touched right now. A
// healthy tier always answers true. A quarantined tier answers false until
// its probe window opens; the goroutine that wins the window (one CAS, so
// probes never stampede) runs a write/read/remove round-trip through the
// FS and lifts the quarantine if it succeeds.
func (s *Store[V]) diskActive() bool {
	if !s.degraded.Load() {
		return true
	}
	due := s.probeAt.Load()
	now := time.Now().UnixNano()
	if now < due {
		return false
	}
	if !s.probeAt.CompareAndSwap(due, now+int64(s.probeEvery)) {
		return false
	}
	if !s.probe() {
		return false
	}
	s.consec.Store(0)
	s.degraded.Store(false)
	return true
}

// probe round-trips a scratch file through the FS. Probe failures are not
// charged to the error budget — the tier is already benched.
func (s *Store[V]) probe() bool {
	p := filepath.Join(s.dir, probeFile)
	if err := s.fs.WriteFile(s.dir, p, []byte("ok")); err != nil {
		return false
	}
	if _, err := s.fs.ReadFile(p); err != nil {
		return false
	}
	s.fs.Remove(p)
	return true
}

// diskFail charges one op failure (post-retries) to the stats and the
// consecutive-failure budget, quarantining the tier when the budget trips.
// The CAS counts each quarantine transition exactly once under concurrent
// failures.
func (s *Store[V]) diskFail() {
	s.diskErrs.Add(1)
	if s.errBudget <= 0 {
		return
	}
	if s.consec.Add(1) >= int64(s.errBudget) {
		if s.degraded.CompareAndSwap(false, true) {
			s.quarantines.Add(1)
			s.probeAt.Store(time.Now().UnixNano() + int64(s.probeEvery))
		}
	}
}

// diskOK resets the consecutive-failure run: the budget only trips on an
// unbroken streak, so a disk that limps along keeps serving.
func (s *Store[V]) diskOK() { s.consec.Store(0) }

// jitterFrac returns the next deterministic jitter fraction in [0, 1):
// splitmix64 over a seeded counter, so backoff timing replays exactly for
// a fixed seed and op order.
func (s *Store[V]) jitterFrac() float64 {
	return rng.Frac(rng.Scramble(s.jitterSeed + s.jitterN.Add(1)*rng.Gamma))
}

// backoffSleep waits before retry attempt+1: exponential base with half
// jitter (uniform in [d/2, d) for d = backoff<<attempt), which spreads
// concurrent retries without ever collapsing the wait to zero.
func (s *Store[V]) backoffSleep(attempt int) {
	if s.backoff <= 0 {
		return
	}
	d := s.backoff << uint(attempt)
	time.Sleep(d/2 + time.Duration(s.jitterFrac()*float64(d/2)))
}

func (s *Store[V]) diskGet(k Key) (V, bool) {
	var zero V
	if !s.diskActive() {
		return zero, false
	}
	p := s.path(k)
	var data []byte
	for attempt := 0; ; attempt++ {
		d, err := s.fs.ReadFile(p)
		if err == nil {
			data = d
			break
		}
		if os.IsNotExist(err) {
			// A clean miss is a healthy answer, not a failure.
			s.diskOK()
			return zero, false
		}
		if attempt >= s.retries {
			s.diskFail()
			return zero, false
		}
		s.retriesN.Add(1)
		s.backoffSleep(attempt)
	}
	var v V
	if err := json.Unmarshal(data, &v); err != nil {
		// A corrupt or foreign file under our key is unusable and rereading
		// won't fix it; drop it so the slot heals on the next Put. Under
		// concurrent readers the Remove succeeds exactly once — the losers
		// get ENOENT, which is fine. Corruption still charges the budget:
		// a disk mangling files is as sick as one refusing reads.
		s.diskFail()
		s.fs.Remove(p)
		return zero, false
	}
	s.diskOK()
	return v, true
}

func (s *Store[V]) diskPut(k Key, v V) {
	if !s.diskActive() {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		// An unmarshalable value is a caller bug, not disk sickness: count
		// it, but don't charge the health budget or retry.
		s.diskErrs.Add(1)
		return
	}
	p := s.path(k)
	for attempt := 0; ; attempt++ {
		if err := s.fs.WriteFile(s.dir, p, data); err == nil {
			s.diskOK()
			return
		}
		if attempt >= s.retries {
			s.diskFail()
			return
		}
		s.retriesN.Add(1)
		s.backoffSleep(attempt)
	}
}
