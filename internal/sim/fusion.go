// Gate-fusion scheduler: a pre-pass over a circuit that coalesces runs of
// gates into fewer, denser state sweeps before the simulator touches the
// exponentially large amplitude array.
//
// Three rewrites are applied, all exact (the fused operators are ordinary
// matrix/phase products of the originals, so amplitudes agree with the
// unfused path to rounding):
//
//   - every maximal run of consecutive 1Q gates on a qubit collapses into
//     one 2×2 (via linalg.Mul2x2) — one state sweep instead of len(run);
//     runs may extend across gates they commute with (a diagonal 1Q run
//     flows through diagonal 2Q gates on the same qubit);
//   - adjacent diagonal gates (z/s/sdg/t/tdg/rz/p on a qubit, cz/cp/rzz on
//     a pair) merge into single phase sweeps, including across any
//     intervening diagonal or disjoint gates, which all commute;
//   - a pending 1Q run next to a 2Q gate that would take the generic 4×4
//     path anyway (su4 blocks, rxx/can/..., explicit unitaries) is
//     absorbed into that gate's matrix (U·(A⊗B) via linalg.Mul4x4): the 4×4
//     sweep costs the same and the 1Q sweeps disappear. Gates with
//     specialized kernels (cx/cz/swap/iswap/...) are never absorbed into —
//     trading a phase or permutation kernel for a generic 4×4 is a loss.
//
// Single leftover gates stay as ordinary ops and keep their ApplyOp fast
// paths. For states with at least the fusion shard threshold amplitudes,
// the fused 1Q and diagonal kernels shard the amplitude array across the
// internal/par worker pool in disjoint index ranges, so the parallel
// result is byte-identical to the serial one (each amplitude is written by
// exactly one worker, with the same arithmetic).
//
// A second pass (layer.go) regroups the fused entries into layers of
// mutually commuting or disjoint operations (fkLayer), executed with
// cache-blocked kernels that apply a whole layer per pass over the
// amplitude array instead of one pass per entry.
package sim

import (
	"context"
	"fmt"
	"math/cmplx"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
	"repro/internal/par"
)

// expi returns e^{iθ}, the phase factor the diagonal kernels use (the same
// expression ApplyOp evaluates, so fused and unfused phases are identical).
func expi(t float64) complex128 { return cmplx.Exp(complex(0, t)) }

// fused op kinds.
const (
	fkOp     = iota // passthrough: execute via ApplyOp (keeps fast paths)
	fkMat1Q         // fused 2×2 on q
	fkDiag1Q        // merged 1Q phase sweep: diag(d[0], d[1]) on q
	fkDiag2Q        // merged 2Q phase sweep: diag(d) in the |qa qb⟩ basis
	fkMat2Q         // fused 4×4 on (qa, qb): a 2Q gate with absorbed 1Q runs
	fkLayer         // batched layer of independent members (layer.go)
	fkDead          // absorbed into a later entry; dropped by compaction
)

// fusedOp is one step of a compiled schedule.
type fusedOp struct {
	kind int
	idx  int        // index of the first source op (error reporting)
	op   circuit.Op // fkOp only
	qa   int        // target qubit (1Q kinds) or first qubit (2Q kinds)
	qb   int
	d    [4]complex128  // fkDiag1Q uses d[0..1]; fkDiag2Q all four
	u    *linalg.Matrix // fkMat1Q (2×2) and fkMat2Q (4×4)

	members []layerMember // fkLayer only: the batched operations, in order
}

// Program is a compiled, fusion-scheduled circuit, reusable across runs
// (Schedule once, RunProgram many — the schedule is independent of state).
// A Program is immutable after Schedule returns and safe for concurrent
// RunProgram calls on distinct states (Monte-Carlo trajectories share one).
type Program struct {
	n   int
	ops []fusedOp

	// srcStep maps each source-circuit op index to the schedule step that
	// executes it (runs, merges, absorptions, and layers all record the
	// entry their source ops landed in).
	srcStep []int

	// Fused counts how many source ops were folded into fused entries
	// (diagnostics and tests).
	Fused int
}

// Steps returns the number of executable schedule steps.
func (p *Program) Steps() int { return len(p.ops) }

// StepForOp returns the schedule step that executes source op i, or -1
// when i is out of range. Noise trajectories use it to place error
// injections at fused-entry boundaries while reusing one compiled Program.
func (p *Program) StepForOp(i int) int {
	if i < 0 || i >= len(p.srcStep) {
		return -1
	}
	return p.srcStep[i]
}

// ProgramStats summarizes the layering of a compiled schedule.
type ProgramStats struct {
	Steps      int     // executable steps after layering
	Layers     int     // fkLayer steps (batched groups of ≥ 2 members)
	Batched    int     // members batched inside layers
	AvgWidth   float64 // Batched / Layers (0 when no layers)
	LayerShare float64 // fraction of kernel applications executed inside layers
}

// Stats computes the layering summary of a compiled schedule.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{Steps: len(p.ops)}
	for i := range p.ops {
		if p.ops[i].kind == fkLayer {
			st.Layers++
			st.Batched += len(p.ops[i].members)
		}
	}
	if st.Layers > 0 {
		st.AvgWidth = float64(st.Batched) / float64(st.Layers)
	}
	if singles := st.Steps - st.Layers; st.Batched+singles > 0 {
		st.LayerShare = float64(st.Batched) / float64(st.Batched+singles)
	}
	return st
}

// mergeWindow bounds the backward commuting-scan when merging diagonal
// gates, keeping Schedule linear-ish on pathological circuits.
const mergeWindow = 32

// defaultFusionShardThreshold is the state size, in amplitudes, at and
// above which fused/layer kernels spread their sweep over the worker pool
// (2^18 amplitudes = 18 qubits, 4 MiB).
const defaultFusionShardThreshold = 1 << 18

// fusionShardThreshold overrides the shard threshold when non-zero. It is
// atomic because tests force the sharded arms on small states while
// parallel sweeps may be running concurrent Runs — a plain package var
// here is read by every kernel sweep and would race under -race. Results
// are byte-identical at any threshold.
var fusionShardThreshold atomic.Int64

// fusionShardWorkers overrides the sharded kernels' worker count when
// non-zero (tests force the parallel arms on small states and single-core
// runners); 0 means the par.Resolve auto default. Atomic for the same
// reason as fusionShardThreshold.
var fusionShardWorkers atomic.Int64

// shardThresholdAmps returns the active shard threshold in amplitudes.
func shardThresholdAmps() int {
	if v := fusionShardThreshold.Load(); v > 0 {
		return int(v)
	}
	return defaultFusionShardThreshold
}

// OverrideSharding forces the fused kernels' shard threshold (in
// amplitudes) and worker count, 0 meaning a knob's default, and returns a
// func that puts the previous overrides back. It is meant for tests, here
// and in other packages, that drive the sharded arms on small states
// (threshold 1) and on single-core runners; results are byte-identical at
// any setting.
func OverrideSharding(threshold, workers int) (restore func()) {
	th, w := fusionShardThreshold.Load(), fusionShardWorkers.Load()
	fusionShardThreshold.Store(int64(threshold))
	fusionShardWorkers.Store(int64(workers))
	return func() {
		fusionShardThreshold.Store(th)
		fusionShardWorkers.Store(w)
	}
}

// pending1Q accumulates a run of consecutive 1Q gates on one qubit.
type pending1Q struct {
	active bool
	mat    *linalg.Matrix // product of the run, latest gate leftmost
	count  int
	first  circuit.Op // the run's first op (passthrough when count == 1)
	idx    int        // source index of the run's first op
	idxs   []int      // source indices of every op in the run
}

// fastDiag1Q reports whether a named 1Q gate dispatches to the phase1Q
// kernel (mirrors ApplyOp).
func fastDiag1Q(op circuit.Op) bool {
	if op.U != nil {
		return false
	}
	switch op.Name {
	case "z", "s", "sdg", "t", "tdg":
		return true
	case "p", "rz":
		return len(op.Params) == 1
	}
	return false
}

// fast2Q reports whether a named 2Q gate has a specialized kernel in
// ApplyOp (phase, permutation, or inner-block mix), i.e. absorbing a 1Q
// run into it would be unprofitable.
func fast2Q(op circuit.Op) bool {
	if op.U != nil {
		return false
	}
	switch op.Name {
	case "cz", "cx", "swap", "iswap", "siswap":
		return true
	case "cp", "rzz":
		return len(op.Params) == 1
	}
	return false
}

// diag2QPhases returns the diagonal of a named 2Q phase gate in the
// |qa qb⟩ basis, mirroring the constants ApplyOp feeds phase2Q.
func diag2QPhases(op circuit.Op) ([4]complex128, bool) {
	if op.U != nil {
		return [4]complex128{}, false
	}
	switch op.Name {
	case "cz":
		return [4]complex128{1, 1, 1, -1}, true
	case "cp":
		if len(op.Params) == 1 {
			return [4]complex128{1, 1, 1, expi(op.Params[0])}, true
		}
	case "rzz":
		if len(op.Params) == 1 {
			e, ec := expi(-op.Params[0]/2), expi(op.Params[0]/2)
			return [4]complex128{e, ec, ec, e}, true
		}
	}
	return [4]complex128{}, false
}

// isDiagonalEntry reports whether a schedule entry is a pure phase
// operation (commutes with every other diagonal, on any qubits).
func (f *fusedOp) isDiagonalEntry() bool {
	switch f.kind {
	case fkDiag1Q, fkDiag2Q:
		return true
	case fkOp:
		return fastDiag1Q(f.op)
	}
	return false
}

// touches reports whether the entry acts on qubit q.
func (f *fusedOp) touches(q int) bool {
	if f.kind == fkOp {
		for _, oq := range f.op.Qubits {
			if oq == q {
				return true
			}
		}
		return false
	}
	if f.qa == q {
		return true
	}
	return (f.kind == fkDiag2Q || f.kind == fkMat2Q) && f.qb == q
}

// isDiag2x2 reports whether a 2×2 matrix has exactly zero off-diagonals
// (products of diagonal gates keep them exactly zero, so runs of named
// diagonal gates are recognized without tolerance).
func isDiag2x2(m *linalg.Matrix) bool {
	return m.Data[1] == 0 && m.Data[2] == 0
}

// Schedule builds the fused, layered schedule of a circuit. It never
// fails: ops it cannot fuse (unknown gates, malformed arities) pass
// through unchanged and surface their error — with the original op index —
// when the program runs.
func Schedule(c *circuit.Circuit) *Program {
	p := scheduleUnlayered(c)
	p.layerize()
	return p
}

// scheduleUnlayered runs the sequential fusion pass alone (runs, diagonal
// merges, 4×4 absorption) with no layer batching. Tests pin its structural
// decisions directly; Schedule layers its output.
func scheduleUnlayered(c *circuit.Circuit) *Program {
	p := &Program{n: c.N, srcStep: make([]int, len(c.Ops))}
	pend := make([]pending1Q, c.N)
	src := p.srcStep
	// Entries absorbed into a later 4×4 (marked fkDead) map to the entry
	// that swallowed them; the compaction pass below drops them and chases
	// these links to fix up srcStep.
	dead := map[int]int{}

	flush := func(q int) {
		pd := &pend[q]
		if !pd.active {
			return
		}
		entry := -1
		switch {
		case pd.count == 1:
			if entry = p.absorbMat1Q(q, pd.mat); entry >= 0 {
				p.Fused++
				break
			}
			p.ops = append(p.ops, fusedOp{kind: fkOp, idx: pd.idx, op: pd.first})
			entry = len(p.ops) - 1
		case isDiag2x2(pd.mat):
			p.Fused += pd.count
			d0, d1 := pd.mat.Data[0], pd.mat.Data[3]
			if entry = p.mergeDiag1Q(q, d0, d1); entry < 0 {
				if entry = p.absorbMat1Q(q, pd.mat); entry < 0 {
					p.ops = append(p.ops, fusedOp{kind: fkDiag1Q, idx: pd.idx, qa: q, d: [4]complex128{d0, d1}})
					entry = len(p.ops) - 1
				}
			}
		default:
			p.Fused += pd.count
			if entry = p.absorbMat1Q(q, pd.mat); entry >= 0 {
				break
			}
			p.ops = append(p.ops, fusedOp{kind: fkMat1Q, idx: pd.idx, qa: q, u: pd.mat})
			entry = len(p.ops) - 1
		}
		for _, si := range pd.idxs {
			src[si] = entry
		}
		pd.active = false
	}

	for i, op := range c.Ops {
		switch len(op.Qubits) {
		case 1:
			q := op.Qubits[0]
			if q < 0 || q >= c.N {
				p.ops = append(p.ops, fusedOp{kind: fkOp, idx: i, op: op})
				src[i] = len(p.ops) - 1
				continue
			}
			u, err := circuit.Unitary(op)
			if err != nil || u.Rows != 2 || u.Cols != 2 {
				flush(q)
				p.ops = append(p.ops, fusedOp{kind: fkOp, idx: i, op: op})
				src[i] = len(p.ops) - 1
				continue
			}
			pd := &pend[q]
			if !pd.active {
				*pd = pending1Q{active: true, mat: u, count: 1, first: op, idx: i, idxs: pd.idxs[:0]}
				pd.idxs = append(pd.idxs, i)
			} else {
				pd.mat = linalg.Mul2x2(u, pd.mat) // op follows the run: left-multiply
				pd.count++
				pd.idxs = append(pd.idxs, i)
			}
		case 2:
			qa, qb := op.Qubits[0], op.Qubits[1]
			if qa < 0 || qa >= c.N || qb < 0 || qb >= c.N || qa == qb {
				p.ops = append(p.ops, fusedOp{kind: fkOp, idx: i, op: op})
				src[i] = len(p.ops) - 1
				continue
			}
			if d, ok := diag2QPhases(op); ok {
				// Diagonal 2Q gate: it commutes with any diagonal pending
				// runs on its qubits, so only non-diagonal runs must flush
				// before it (a diagonal run emitted later still applies
				// the same total operator).
				for _, q := range [2]int{qa, qb} {
					if pend[q].active && !isDiag2x2(pend[q].mat) {
						flush(q)
					}
				}
				if e := p.mergeDiag2Q(qa, qb, d); e >= 0 {
					p.Fused++
					src[i] = e
					continue
				}
				p.ops = append(p.ops, fusedOp{kind: fkDiag2Q, idx: i, qa: qa, qb: qb, d: d})
				src[i] = len(p.ops) - 1
				continue
			}
			if fast2Q(op) {
				// Specialized kernel: run it as-is; absorbing 1Q runs here
				// would trade a phase/permutation/mix kernel for a generic
				// 4×4 sweep.
				flush(qa)
				flush(qb)
				p.ops = append(p.ops, fusedOp{kind: fkOp, idx: i, op: op})
				src[i] = len(p.ops) - 1
				continue
			}
			// Generic-path 2Q gate: absorb any pending 1Q runs on its
			// qubits into its 4×4, then fold in earlier entries acting
			// entirely inside its pair (the backward chain) — the sweep
			// cost is unchanged and every folded sweep disappears.
			u2q, err := circuit.Unitary(op)
			if err != nil || u2q.Rows != 4 || u2q.Cols != 4 {
				flush(qa)
				flush(qb)
				p.ops = append(p.ops, fusedOp{kind: fkOp, idx: i, op: op})
				src[i] = len(p.ops) - 1
				continue
			}
			u4 := u2q
			if pend[qa].active || pend[qb].active {
				ua, ub := gates.I2(), gates.I2()
				absorbed := 0
				for _, q := range [2]int{qa, qb} {
					if pd := &pend[q]; pd.active {
						if q == qa {
							ua = pd.mat
						} else {
							ub = pd.mat
						}
						absorbed += pd.count
						for _, si := range pd.idxs {
							src[si] = len(p.ops) // the fkMat2Q appended below
						}
						pd.active = false
					}
				}
				p.Fused += absorbed
				kron := linalg.New(4, 4)
				linalg.KronInto(kron, ua, ub) // qa is the high bit of the gate basis
				u4 = linalg.Mul4x4(u2q, kron)
			}
			u4 = p.absorbBackward2Q(qa, qb, u4, dead)
			p.ops = append(p.ops, fusedOp{kind: fkMat2Q, idx: i, qa: qa, qb: qb, u: u4})
			src[i] = len(p.ops) - 1
		default:
			p.ops = append(p.ops, fusedOp{kind: fkOp, idx: i, op: op})
			src[i] = len(p.ops) - 1
		}
	}
	for q := 0; q < c.N; q++ {
		flush(q)
	}
	if len(dead) > 0 {
		remap := make([]int, len(p.ops))
		kept := p.ops[:0]
		for i := range p.ops {
			if p.ops[i].kind == fkDead {
				remap[i] = -1
				continue
			}
			remap[i] = len(kept)
			kept = append(kept, p.ops[i])
		}
		p.ops = kept
		for i, e := range src {
			for remap[e] < 0 {
				e = dead[e] // chase the absorption chain to a live entry
			}
			src[i] = remap[e]
		}
	}
	return p
}

// absorbBackward2Q folds earlier schedule entries acting entirely inside
// {qa, qb} into an arriving generic 4×4, commuting backward over disjoint
// entries: 1Q entries on either qubit, diagonal/full 4×4 entries on the
// same pair, and specialized-2Q passthroughs on the same oriented pair all
// right-multiply into the matrix (they precede it in program order) and
// their sweeps disappear. Absorbed entries are marked fkDead and recorded
// in dead for the compaction pass. Never mutates u4 in place — it may
// still alias the source op's own matrix. Returns the folded matrix.
func (p *Program) absorbBackward2Q(qa, qb int, u4 *linalg.Matrix, dead map[int]int) *linalg.Matrix {
	target := len(p.ops) // the index the arriving fkMat2Q will occupy
	for i, steps := len(p.ops)-1, 0; i >= 0 && steps < mergeWindow; i, steps = i-1, steps+1 {
		f := &p.ops[i]
		if f.kind == fkDead {
			continue
		}
		switch f.kind {
		case fkMat1Q:
			if f.qa != qa && f.qa != qb {
				continue // disjoint 1Q: commutes, keep scanning
			}
			u4 = linalg.Mul4x4(u4, expand1Q(f.qa == qa, f.u))
		case fkDiag1Q:
			if f.qa != qa && f.qa != qb {
				continue
			}
			dm := linalg.New(2, 2)
			dm.Data[0], dm.Data[3] = f.d[0], f.d[1]
			u4 = linalg.Mul4x4(u4, expand1Q(f.qa == qa, dm))
		case fkDiag2Q:
			if !((f.qa == qa && f.qb == qb) || (f.qa == qb && f.qb == qa)) {
				if f.touches(qa) || f.touches(qb) {
					return u4 // shares one qubit: blocks the scan
				}
				continue
			}
			d := f.d
			if f.qa != qa {
				d[1], d[2] = d[2], d[1] // opposite orientation
			}
			// Right-multiplying by a diagonal scales the columns.
			scaled := linalg.New(4, 4)
			for k, v := range u4.Data {
				scaled.Data[k] = v * d[k%4]
			}
			u4 = scaled
		case fkMat2Q:
			if f.qa != qa || f.qb != qb {
				if f.touches(qa) || f.touches(qb) {
					return u4
				}
				continue
			}
			u4 = linalg.Mul4x4(u4, f.u)
		case fkOp:
			if !f.touches(qa) && !f.touches(qb) {
				continue
			}
			if len(f.op.Qubits) == 1 {
				u, err := circuit.Unitary(f.op)
				if err != nil || u.Rows != 2 || u.Cols != 2 {
					return u4
				}
				u4 = linalg.Mul4x4(u4, expand1Q(f.op.Qubits[0] == qa, u))
				break
			}
			// A specialized-2Q passthrough on the same oriented pair folds
			// in too — its whole pass disappears into the already-paid 4×4.
			if len(f.op.Qubits) == 2 && f.op.Qubits[0] == qa && f.op.Qubits[1] == qb {
				u, err := circuit.Unitary(f.op)
				if err != nil || u.Rows != 4 || u.Cols != 4 {
					return u4
				}
				u4 = linalg.Mul4x4(u4, u)
				break
			}
			return u4
		default:
			return u4 // fkLayer or unknown: never absorbed
		}
		f.kind = fkDead
		f.qa, f.qb = -1, -1
		f.op = circuit.Op{}
		f.u = nil
		dead[i] = target
		p.Fused++
	}
	return u4
}

// absorbMat1Q folds a flushing 2×2 on qubit q into an earlier fkMat2Q
// entry on a pair containing q, if one is reachable by commuting backward
// over entries disjoint from q (or, when the 2×2 is diagonal, over other
// diagonal entries). The run follows the 4×4 in program order, so it
// left-multiplies: the 4×4 sweep then applies both for free and the 1Q
// sweep disappears — the backward twin of the forward absorption the
// scheduler already does when a run is pending as the 2Q gate arrives.
// Returns the entry index it merged into, or -1.
func (p *Program) absorbMat1Q(q int, u *linalg.Matrix) int {
	diag := isDiag2x2(u)
	for i, steps := len(p.ops)-1, 0; i >= 0 && steps < mergeWindow; i, steps = i-1, steps+1 {
		f := &p.ops[i]
		if f.kind == fkMat2Q && (f.qa == q || f.qb == q) {
			f.u = linalg.Mul4x4(expand1Q(q == f.qa, u), f.u)
			return i
		}
		if !f.touches(q) || (diag && f.isDiagonalEntry()) {
			continue
		}
		return -1
	}
	return -1
}

// expand1Q lifts a 2×2 to the 4×4 gate basis: u⊗I when the qubit is the
// pair's high bit (qa), I⊗u otherwise.
func expand1Q(high bool, u *linalg.Matrix) *linalg.Matrix {
	ua, ub := gates.I2(), gates.I2()
	if high {
		ua = u
	} else {
		ub = u
	}
	kron := linalg.New(4, 4)
	linalg.KronInto(kron, ua, ub)
	return kron
}

// mergeDiag1Q folds diag(d0, d1) on qubit q into an earlier fkDiag1Q entry
// on the same qubit if one is reachable by commuting backward over
// diagonal or disjoint entries. Returns the entry index it merged into, or
// -1.
func (p *Program) mergeDiag1Q(q int, d0, d1 complex128) int {
	for i, steps := len(p.ops)-1, 0; i >= 0 && steps < mergeWindow; i, steps = i-1, steps+1 {
		f := &p.ops[i]
		if f.kind == fkDiag1Q && f.qa == q {
			f.d[0] *= d0
			f.d[1] *= d1
			return i
		}
		if f.isDiagonalEntry() || !f.touches(q) {
			continue // commutes: keep scanning backward
		}
		return -1
	}
	return -1
}

// mergeDiag2Q folds a diagonal in the |qa qb⟩ basis into an earlier
// fkDiag2Q entry on the same unordered pair if one is reachable by
// commuting backward over diagonal or disjoint entries. Returns the entry
// index it merged into, or -1.
func (p *Program) mergeDiag2Q(qa, qb int, d [4]complex128) int {
	for i, steps := len(p.ops)-1, 0; i >= 0 && steps < mergeWindow; i, steps = i-1, steps+1 {
		f := &p.ops[i]
		if f.kind == fkDiag2Q && ((f.qa == qa && f.qb == qb) || (f.qa == qb && f.qb == qa)) {
			if f.qa != qa {
				d[1], d[2] = d[2], d[1] // opposite orientation: |01⟩ and |10⟩ swap
			}
			f.d[0] *= d[0]
			f.d[1] *= d[1]
			f.d[2] *= d[2]
			f.d[3] *= d[3]
			return i
		}
		if f.isDiagonalEntry() || (!f.touches(qa) && !f.touches(qb)) {
			continue
		}
		return -1
	}
	return -1
}

// RunProgram applies a compiled schedule to the state.
func (s *State) RunProgram(p *Program) error {
	return s.RunProgramCtx(context.Background(), p)
}

// RunProgramCtx is RunProgram with cooperative cancellation: ctx is checked
// before every fused op (each op is one full state sweep — the natural
// stopping granularity), so a deadline-bound simulation stops within one
// sweep instead of running the schedule to completion. The state is left
// partially evolved on cancellation and must be discarded.
func (s *State) RunProgramCtx(ctx context.Context, p *Program) error {
	return s.runSteps(ctx, p, 0, len(p.ops))
}

// RunProgramSteps applies schedule steps [from, to) of a compiled program.
// Noise trajectories step a shared Program one step at a time, injecting
// Pauli errors at the boundaries StepForOp names; from/to outside
// [0, Steps] are clamped.
func (s *State) RunProgramSteps(p *Program, from, to int) error {
	if from < 0 {
		from = 0
	}
	if to > len(p.ops) {
		to = len(p.ops)
	}
	return s.runSteps(context.Background(), p, from, to)
}

// runSteps executes schedule steps [from, to).
func (s *State) runSteps(ctx context.Context, p *Program, from, to int) error {
	if p.n > s.N {
		return fmt.Errorf("sim: program has %d qubits, state has %d", p.n, s.N)
	}
	for i := from; i < to; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		f := &p.ops[i]
		var err error
		switch f.kind {
		case fkOp:
			err = s.ApplyOp(f.op)
		case fkMat1Q:
			s.fusedMat1Q(f.qa, f.u)
		case fkDiag1Q:
			s.fusedDiag1Q(f.qa, f.d[0], f.d[1])
		case fkDiag2Q:
			s.fusedDiag2Q(f.qa, f.qb, f.d)
		case fkMat2Q:
			err = s.Apply2Q(f.qa, f.qb, f.u)
		case fkLayer:
			err = s.applyLayer(f)
		}
		if err != nil {
			if f.kind == fkOp {
				return fmt.Errorf("sim: op %d (%s): %w", f.idx, f.op, err)
			}
			return fmt.Errorf("sim: op %d (fused): %w", f.idx, err)
		}
	}
	return nil
}

// shardSpan picks the worker count for a fused kernel sweep: 1 (serial)
// below the threshold or when the pool is one core.
func (s *State) shardSpan() int {
	if len(s.Amp) < shardThresholdAmps() {
		return 1
	}
	if w := fusionShardWorkers.Load(); w > 0 {
		return int(w)
	}
	return par.Resolve(0)
}

// fusedMat1Q applies a fused 2×2 to qubit q: the serial arm is Apply1Q's
// loop; the sharded arm splits the pair-index space [0, 2^(n-1)) into one
// contiguous range per worker (pair p maps to amplitude index
// ((p &^ (mask-1)) << 1) | (p & (mask-1))), so every amplitude is written
// by exactly one worker with identical arithmetic.
func (s *State) fusedMat1Q(q int, u *linalg.Matrix) {
	mask := 1 << s.bitPos(q)
	u00, u01 := u.Data[0], u.Data[1]
	u10, u11 := u.Data[2], u.Data[3]
	amp := s.Amp
	workers := s.shardSpan()
	if workers <= 1 {
		for base := 0; base < len(amp); base += mask << 1 {
			for i := base; i < base+mask; i++ {
				j := i + mask
				a0, a1 := amp[i], amp[j]
				amp[i] = u00*a0 + u01*a1
				amp[j] = u10*a0 + u11*a1
			}
		}
		return
	}
	total := len(amp) >> 1
	chunk := (total + workers - 1) / workers
	low := mask - 1
	par.ForEach(workers, workers, func(w int) error {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > total {
			hi = total
		}
		for pIdx := lo; pIdx < hi; pIdx++ {
			i := ((pIdx &^ low) << 1) | (pIdx & low)
			j := i + mask
			a0, a1 := amp[i], amp[j]
			amp[i] = u00*a0 + u01*a1
			amp[j] = u10*a0 + u11*a1
		}
		return nil
	})
}

// fusedDiag1Q applies a merged phase sweep diag(d0, d1) on qubit q,
// keeping phase1Q's skip of unit factors; the sharded arm mirrors
// fusedMat1Q's disjoint pair ranges.
func (s *State) fusedDiag1Q(q int, d0, d1 complex128) {
	mask := 1 << s.bitPos(q)
	amp := s.Amp
	workers := s.shardSpan()
	if workers <= 1 {
		for base := 0; base < len(amp); base += mask << 1 {
			if d0 != 1 {
				for i := base; i < base+mask; i++ {
					amp[i] *= d0
				}
			}
			if d1 != 1 {
				for i := base + mask; i < base+(mask<<1); i++ {
					amp[i] *= d1
				}
			}
		}
		return
	}
	total := len(amp) >> 1
	chunk := (total + workers - 1) / workers
	low := mask - 1
	par.ForEach(workers, workers, func(w int) error {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > total {
			hi = total
		}
		for pIdx := lo; pIdx < hi; pIdx++ {
			i := ((pIdx &^ low) << 1) | (pIdx & low)
			if d0 != 1 {
				amp[i] *= d0
			}
			if d1 != 1 {
				amp[i+mask] *= d1
			}
		}
		return nil
	})
}

// fusedDiag2Q applies a merged phase sweep diag(d) in the |qa qb⟩ basis,
// keeping phase2Q's skip of unit factors; the sharded arm splits the
// quad-index space into contiguous per-worker ranges (quad p expands to
// its |00⟩ index by re-inserting a zero bit at each mask position).
func (s *State) fusedDiag2Q(qa, qb int, d [4]complex128) {
	maskA := 1 << s.bitPos(qa)
	maskB := 1 << s.bitPos(qb)
	amp := s.Amp
	d00, d01, d10, d11 := d[0], d[1], d[2], d[3]
	workers := s.shardSpan()
	if workers <= 1 {
		// The serial closure is kept separate from the sharded one so it
		// never escapes (the kernel allocation guard pins this at zero).
		quad2Q(len(amp), maskA, maskB, func(i00 int) {
			if d00 != 1 {
				amp[i00] *= d00
			}
			if d01 != 1 {
				amp[i00|maskB] *= d01
			}
			if d10 != 1 {
				amp[i00|maskA] *= d10
			}
			if d11 != 1 {
				amp[i00|maskA|maskB] *= d11
			}
		})
		return
	}
	lo, hi := maskA, maskB
	if lo > hi {
		lo, hi = hi, lo
	}
	total := len(amp) >> 2
	chunk := (total + workers - 1) / workers
	l1, h1 := lo-1, hi-1
	par.ForEach(workers, workers, func(w int) error {
		from, to := w*chunk, (w+1)*chunk
		if to > total {
			to = total
		}
		for pIdx := from; pIdx < to; pIdx++ {
			x := ((pIdx &^ l1) << 1) | (pIdx & l1)
			i00 := ((x &^ h1) << 1) | (x & h1)
			if d00 != 1 {
				amp[i00] *= d00
			}
			if d01 != 1 {
				amp[i00|maskB] *= d01
			}
			if d10 != 1 {
				amp[i00|maskA] *= d10
			}
			if d11 != 1 {
				amp[i00|maskA|maskB] *= d11
			}
		}
		return nil
	})
}
