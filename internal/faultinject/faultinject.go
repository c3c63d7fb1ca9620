// Package faultinject is the deterministic chaos harness behind the
// repository's fault-tolerance tests: seeded schedules decide which cache
// filesystem operations fail or corrupt and which sweep cells panic, hang,
// or error, so a chaos test replays the exact same fault pattern on every
// run — flaky-by-construction tests are how fault-tolerance code rots.
//
// Two decision models are provided, matched to the two injection surfaces:
//
//   - Schedule draws from a counter-based splitmix64 stream, deterministic
//     in *call order*. It drives FaultFS, whose operations are serialized
//     per path by the cache's retry loops in any single-threaded test, and
//     whose concurrent tests assert invariants rather than exact outcomes.
//   - Cell hooks (PanicCells, SlowCells, FailCells) decide from the *cell
//     coordinates* (workload, size, machine), independent of scheduling,
//     so a parallel sweep injects exactly the faults a serial sweep would —
//     the same discipline the sweep engine's FNV task seeds follow.
//
// The package deliberately imports none of the packages it injects into:
// FaultFS satisfies cache.FS structurally, and the cell hooks match the
// experiments.CellHook signature, so it stays a leaf both can depend on in
// tests without cycles.
package faultinject

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"

	"repro/internal/rng"
)

// Schedule is a seeded, counter-based decision stream: the n-th call to
// Hit/Frac is a pure function of (seed, n), so a fixed seed and call order
// replay the identical fault pattern. Safe for concurrent use — the counter
// is atomic — though concurrent callers race for positions in the stream.
type Schedule struct {
	seed uint64
	n    atomic.Uint64
}

// NewSchedule returns a schedule drawing from the stream for seed.
func NewSchedule(seed uint64) *Schedule { return &Schedule{seed: seed} }

// Frac consumes the next stream position and returns its fraction in [0, 1).
func (s *Schedule) Frac() float64 {
	return rng.Frac(rng.Scramble(s.seed + s.n.Add(1)*rng.Gamma))
}

// Hit consumes the next stream position and reports true with probability p.
func (s *Schedule) Hit(p float64) bool { return s.Frac() < p }

// cellFrac hashes a sweep cell's coordinates under a seed into a fraction
// in [0, 1). Pure function of its arguments — no stream position — so the
// decision for a cell is identical no matter when or on which goroutine
// the sweep engine evaluates it.
func cellFrac(seed uint64, workload string, size int, machine string) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(workload))
	for i := 0; i < 8; i++ {
		buf[i] = byte(uint64(size) >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(machine))
	return rng.Frac(rng.Scramble(h.Sum64()))
}

// CellHook mirrors experiments.CellHook structurally (this package must not
// import experiments): a pre-evaluation hook receiving the cell's identity
// and its evaluation context.
type CellHook = func(ctx context.Context, workload string, size int, machine string) error

// PanicCells returns a cell hook that panics on the deterministic fraction
// p of cells for this seed — the chaos input for panic-isolation tests.
func PanicCells(seed uint64, p float64) CellHook {
	return func(_ context.Context, workload string, size int, machine string) error {
		if cellFrac(seed, workload, size, machine) < p {
			panic(fmt.Sprintf("faultinject: cell %s/%d/%s", workload, size, machine))
		}
		return nil
	}
}

// FailCells returns a cell hook that errors on the deterministic fraction
// p of cells for this seed.
func FailCells(seed uint64, p float64) CellHook {
	return func(_ context.Context, workload string, size int, machine string) error {
		if cellFrac(seed, workload, size, machine) < p {
			return fmt.Errorf("faultinject: cell %s/%d/%s failed", workload, size, machine)
		}
		return nil
	}
}

// SlowCells returns a cell hook that hangs on the deterministic fraction p
// of cells until the cell's context expires, then reports its error — the
// shape of a wedged evaluation, used to exercise CellTimeout without a
// single real sleep. A hung cell under a nil deadline would block forever,
// exactly like the real failure it models.
func SlowCells(seed uint64, p float64) CellHook {
	return func(ctx context.Context, workload string, size int, machine string) error {
		if cellFrac(seed, workload, size, machine) < p {
			<-ctx.Done()
			return ctx.Err()
		}
		return nil
	}
}
