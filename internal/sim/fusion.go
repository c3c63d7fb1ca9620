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
//     kernel anyway (su4 blocks, rxx/can/..., explicit unitaries) is
//     absorbed into that gate's matrix (U·(A⊗B) via linalg.Mul4x4): the 4×4
//     sweep costs the same and the 1Q sweeps disappear. Gates with
//     specialized kernels (cx/cz/swap/iswap/...) are never absorbed into —
//     trading a phase or permutation kernel for a generic 4×4 is a loss.
//
// Single leftover gates stay source ops (kOp) through this pass. A second
// pass (layer.go) converts them to members with opMember — so they keep
// their specialized kernels — and regroups all entries into layers of
// mutually commuting or disjoint operations (kLayer), each executed as one
// cache-blocked pass over the amplitude array. Every step runs serially on
// the region kernels of kernels.go.
package sim

import (
	"context"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
)

// Program is a compiled, fusion-scheduled circuit, reusable across runs
// (Schedule once, RunProgramCtx many — the schedule is independent of
// state). A Program is immutable after Schedule returns and safe for
// concurrent RunProgramCtx calls on distinct states (Monte-Carlo trajectories share one).
type Program struct {
	n   int
	ops []member

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
	Layers     int     // kLayer steps (batched groups of ≥ 2 members)
	Batched    int     // members batched inside layers
	AvgWidth   float64 // Batched / Layers (0 when no layers)
	LayerShare float64 // fraction of kernel applications executed inside layers
}

// Stats computes the layering summary of a compiled schedule.
func (p *Program) Stats() ProgramStats {
	st := ProgramStats{Steps: len(p.ops)}
	for i := range p.ops {
		if p.ops[i].kind == kLayer {
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

// pending1Q accumulates a run of consecutive 1Q gates on one qubit.
type pending1Q struct {
	active bool
	mat    *linalg.Matrix // product of the run, latest gate leftmost
	count  int
	first  circuit.Op // the run's first op (passthrough when count == 1)
	idx    int        // source index of the run's first op
	idxs   []int      // source indices of every op in the run
}

// fastDiag1Q reports whether opMember turns a 1Q op into a phase member.
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

// fast2Q reports whether a non-diagonal 2Q gate has a specialized
// permutation or inner-block mix kernel (see opMember), i.e. absorbing a
// 1Q run into it would be unprofitable. The diagonal cz/cp/rzz are handled
// before it is asked.
func fast2Q(op circuit.Op) bool {
	if op.U != nil {
		return false
	}
	switch op.Name {
	case "cx", "swap", "iswap", "siswap":
		return true
	}
	return false
}

// isDiagonalEntry reports whether a schedule entry is a pure phase
// operation (commutes with every other diagonal, on any qubits).
func (f *member) isDiagonalEntry() bool {
	if f.kind == kOp {
		return fastDiag1Q(f.op)
	}
	return f.diagonal()
}

// touches reports whether the entry acts on qubit q.
func (f *member) touches(q int) bool {
	if f.kind == kOp {
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
	return f.twoQ() && f.qb == q
}

// isDiag2x2 reports whether a 2×2 matrix has exactly zero off-diagonals
// (products of diagonal gates keep them exactly zero, so runs of named
// diagonal gates are recognized without tolerance).
func isDiag2x2(m *linalg.Matrix) bool {
	return m.Data[1] == 0 && m.Data[2] == 0
}

// Schedule builds the fused, layered schedule of a circuit. It never
// fails: ops it cannot convert (unknown gates, malformed arities, invalid
// qubits) stay source ops and surface their error — with the original op
// index — when the program runs.
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
	// Entries absorbed into a later 4×4 (marked kDead) map to the entry
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
			p.ops = append(p.ops, member{kind: kOp, idx: pd.idx, op: pd.first})
			entry = len(p.ops) - 1
		case isDiag2x2(pd.mat):
			p.Fused += pd.count
			d0, d1 := pd.mat.Data[0], pd.mat.Data[3]
			if entry = p.mergeDiag1Q(q, d0, d1); entry < 0 {
				if entry = p.absorbMat1Q(q, pd.mat); entry < 0 {
					p.ops = append(p.ops, member{kind: kDiag1Q, idx: pd.idx, qa: q, d: [4]complex128{d0, d1}})
					entry = len(p.ops) - 1
				}
			}
		default:
			p.Fused += pd.count
			if entry = p.absorbMat1Q(q, pd.mat); entry >= 0 {
				break
			}
			p.ops = append(p.ops, member{kind: kMat1Q, idx: pd.idx, qa: q, u: pd.mat})
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
				p.ops = append(p.ops, member{kind: kOp, idx: i, op: op})
				src[i] = len(p.ops) - 1
				continue
			}
			u, err := circuit.Unitary(op)
			if err != nil || u.Rows != 2 || u.Cols != 2 {
				flush(q)
				p.ops = append(p.ops, member{kind: kOp, idx: i, op: op})
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
				p.ops = append(p.ops, member{kind: kOp, idx: i, op: op})
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
				p.ops = append(p.ops, member{kind: kDiag2Q, idx: i, qa: qa, qb: qb, d: d})
				src[i] = len(p.ops) - 1
				continue
			}
			if fast2Q(op) {
				// Specialized kernel: run it as-is; absorbing 1Q runs here
				// would trade a phase/permutation/mix kernel for a generic
				// 4×4 sweep.
				flush(qa)
				flush(qb)
				p.ops = append(p.ops, member{kind: kOp, idx: i, op: op})
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
				p.ops = append(p.ops, member{kind: kOp, idx: i, op: op})
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
							src[si] = len(p.ops) // the kMat2Q appended below
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
			p.ops = append(p.ops, member{kind: kMat2Q, idx: i, qa: qa, qb: qb, u: u4})
			src[i] = len(p.ops) - 1
		default:
			p.ops = append(p.ops, member{kind: kOp, idx: i, op: op})
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
			if p.ops[i].kind == kDead {
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
// their sweeps disappear. Absorbed entries are marked kDead and recorded
// in dead for the compaction pass. Never mutates u4 in place — it may
// still alias the source op's own matrix. Returns the folded matrix.
func (p *Program) absorbBackward2Q(qa, qb int, u4 *linalg.Matrix, dead map[int]int) *linalg.Matrix {
	target := len(p.ops) // the index the arriving kMat2Q will occupy
	for i, steps := len(p.ops)-1, 0; i >= 0 && steps < mergeWindow; i, steps = i-1, steps+1 {
		f := &p.ops[i]
		if f.kind == kDead {
			continue
		}
		switch f.kind {
		case kMat1Q:
			if f.qa != qa && f.qa != qb {
				continue // disjoint 1Q: commutes, keep scanning
			}
			u4 = linalg.Mul4x4(u4, expand1Q(f.qa == qa, f.u))
		case kDiag1Q:
			if f.qa != qa && f.qa != qb {
				continue
			}
			dm := linalg.New(2, 2)
			dm.Data[0], dm.Data[3] = f.d[0], f.d[1]
			u4 = linalg.Mul4x4(u4, expand1Q(f.qa == qa, dm))
		case kDiag2Q:
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
		case kMat2Q:
			if f.qa != qa || f.qb != qb {
				if f.touches(qa) || f.touches(qb) {
					return u4
				}
				continue
			}
			u4 = linalg.Mul4x4(u4, f.u)
		case kOp:
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
			return u4 // kLayer or unknown: never absorbed
		}
		f.kind = kDead
		f.qa, f.qb = -1, -1
		f.op = circuit.Op{}
		f.u = nil
		dead[i] = target
		p.Fused++
	}
	return u4
}

// absorbMat1Q folds a flushing 2×2 on qubit q into an earlier kMat2Q
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
		if f.kind == kMat2Q && (f.qa == q || f.qb == q) {
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

// mergeDiag1Q folds diag(d0, d1) on qubit q into an earlier kDiag1Q entry
// on the same qubit if one is reachable by commuting backward over
// diagonal or disjoint entries. Returns the entry index it merged into, or
// -1.
func (p *Program) mergeDiag1Q(q int, d0, d1 complex128) int {
	for i, steps := len(p.ops)-1, 0; i >= 0 && steps < mergeWindow; i, steps = i-1, steps+1 {
		f := &p.ops[i]
		if f.kind == kDiag1Q && f.qa == q {
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
// kDiag2Q entry on the same unordered pair if one is reachable by
// commuting backward over diagonal or disjoint entries. Returns the entry
// index it merged into, or -1.
func (p *Program) mergeDiag2Q(qa, qb int, d [4]complex128) int {
	for i, steps := len(p.ops)-1, 0; i >= 0 && steps < mergeWindow; i, steps = i-1, steps+1 {
		f := &p.ops[i]
		if f.kind == kDiag2Q && ((f.qa == qa && f.qb == qb) || (f.qa == qb && f.qb == qa)) {
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

// RunProgram is RunProgramCtx under context.Background(), kept as a shim
// for callers outside this module.
func (s *State) RunProgram(p *Program) error { return s.RunProgramCtx(context.Background(), p) }

// RunProgramCtx applies a compiled schedule to the state, with cooperative
// cancellation: ctx is checked before every step (one pass over the state,
// plus one per cross-tile member of a layer — the natural stopping
// granularity), so a deadline-bound simulation stops within one step
// instead of running the schedule to completion. The state is left
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
		switch f.kind {
		case kOp:
			if err := s.ApplyOp(f.op); err != nil {
				return fmt.Errorf("sim: op %d (%s): %w", f.idx, f.op, err)
			}
		case kLayer:
			s.applyLayer(f.members)
		default:
			s.apply(f, s.Amp, 0)
		}
	}
	return nil
}
