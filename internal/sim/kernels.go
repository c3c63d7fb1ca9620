package sim

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/linalg"
)

// The kernels in this file are the portable kernel set. The three
// complex-arithmetic primitives — tileMat1Q, tileMat2Q and scale, the
// strided complex scale under tileDiag1Q, diagQuarter and so tileDiag2Q —
// are bound per platform: kernels_generic.go forwards them to the Go loops
// here (tileMat1QGo, tileMat2QGo, scaleGo), and on amd64 kernels_amd64.go
// runs them as AVX routines, or as the Go loops on a host without AVX, with
// the Go loops kept as the oracle FuzzAVXKernelsMatchGo compares the
// routines against bit for bit. The routines are exact: Go lowers m·a to
// (mr·ar − mi·ai, mr·ai + mi·ar); AVX forms (mr·ar, mr·ai) + (−mi·ai, mi·ar),
// which is the same pair of IEEE results because (−x)·y = −(x·y),
// x + (−y) = x − y and addition commutes; and a row's products are summed
// left to right, as written below. That holds against the Go loops
// compiled at the default GOAMD64=v1; at v3 Go itself fuses multiply-adds,
// which round once and move the last bit, and so would an FMA routine. The
// exchanges (tileX, tileCX) are plain 16-byte moves, and tileMix is on no
// timed path, so they are Go everywhere. A scheduled SWAP runs no kernel at
// all: it is a kRelabel member, a change of which storage bit holds which
// qubit (fusion.go).

// iSWAP-family inner-block entries, read once from the same memoized
// matrices circuit.Unitary resolves, so the mix kernel multiplies the exact
// floating-point values the generic path would (e.g. the iSWAP diagonal is
// cos(π/2) ≈ 6.1e-17, not literal zero).
var (
	iswapDiag, iswapOff   = gates.ISwap().At(1, 1), gates.ISwap().At(1, 2)
	siswapDiag, siswapOff = gates.SqrtISwap().At(1, 1), gates.SqrtISwap().At(1, 2)
)

// kind says what a schedule entry or layer member does.
type kind uint8

const (
	kMat1Q   kind = iota // generic 2×2 u on qa
	kDiag1Q              // diag(d[0], d[1]) on qa
	kX                   // Pauli-X: amplitude pair exchange on qa
	kMat2Q               // generic 4×4 u on (qa, qb), qa the high bit of the gate basis
	kDiag2Q              // diag(d) in the |qa qb⟩ basis
	kCX                  // CNOT, qa controls
	kRelabel             // SWAP as a relabeling of (qa, qb): no kernel
	kMix                 // iSWAP-family inner block: d[0] = diag, d[1] = off
	kOp                  // a source op kept as is (see Schedule); a barrier to layering
	kLayer               // batched independent members (layer.go)
	kDead                // absorbed into a later entry; dropped by compaction
)

// member is one operation of a compiled schedule: a step of its own, or
// one of the members a kLayer step batches.
type member struct {
	kind    kind
	idx     int // index of the first source op (error reporting)
	qa, qb  int
	d       [4]complex128  // diagonal kinds; kMix uses d[0] (diag), d[1] (off)
	u       *linalg.Matrix // kMat1Q (2×2) and kMat2Q (4×4)
	flip    bool           // kMat2Q that folded an odd number of relabels of its pair
	op      circuit.Op     // kOp only
	members []member       // kLayer only, in program order
}

// twoQ reports whether the member acts on two qubits.
func (m *member) twoQ() bool { return m.kind >= kMat2Q && m.kind <= kMix }

// diagonal reports whether the member is a pure phase (commutes with
// every other diagonal, on any qubits).
func (m *member) diagonal() bool { return m.kind == kDiag1Q || m.kind == kDiag2Q }

// expi returns e^{iθ}, the phase factor of the diagonal gates.
func expi(t float64) complex128 { return cmplx.Exp(complex(0, t)) }

// diag2QPhases returns the diagonal of a named 2Q phase gate in the
// |qa qb⟩ basis.
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

// opMember validates an op against an n-qubit register and converts it to
// the member that applies it: named diagonal gates (z/s/sdg/t/tdg/rz/p,
// cz/cp/rzz) become pure phase multiplies, x/cx amplitude exchanges,
// and the iSWAP family (iswap/siswap — the SNAIL-native basis gates) a 2×2
// mix of each quad's |01⟩/|10⟩ pair. Every other gate, and any op carrying
// an explicit unitary, becomes a generic 2×2 or 4×4 member; so does swap,
// which the scheduler relabels instead and ApplyOp, the op-by-op reference,
// applies as its 4×4 unitary. The specialized
// kernels are exact: they compute the generic kernels' floating-point
// products minus the terms that are structurally zero or one.
func opMember(op circuit.Op, n int) (member, error) {
	switch len(op.Qubits) {
	case 1:
		q := op.Qubits[0]
		if q < 0 || q >= n {
			return member{}, fmt.Errorf("sim: qubit %d out of range", q)
		}
		if op.U == nil {
			diag := func(d0, d1 complex128) (member, error) {
				return member{kind: kDiag1Q, qa: q, d: [4]complex128{d0, d1}}, nil
			}
			switch op.Name {
			case "z":
				return diag(1, -1)
			case "s":
				return diag(1, 1i)
			case "sdg":
				return diag(1, -1i)
			case "t":
				return diag(1, expi(math.Pi/4))
			case "tdg":
				return diag(1, expi(-math.Pi/4))
			case "p":
				if len(op.Params) == 1 {
					return diag(1, expi(op.Params[0]))
				}
			case "rz":
				if len(op.Params) == 1 {
					half := op.Params[0] / 2
					return diag(expi(-half), expi(half))
				}
			case "x":
				return member{kind: kX, qa: q}, nil
			}
		}
		u, err := circuit.Unitary(op)
		if err != nil {
			return member{}, err
		}
		if u.Rows != 2 || u.Cols != 2 {
			return member{}, fmt.Errorf("sim: %s on one qubit needs a 2x2 matrix", op.Name)
		}
		return member{kind: kMat1Q, qa: q, u: u}, nil
	case 2:
		qa, qb := op.Qubits[0], op.Qubits[1]
		if qa == qb {
			return member{}, fmt.Errorf("sim: %s needs two distinct qubits, got qubit %d twice", op.Name, qa)
		}
		if qa < 0 || qa >= n || qb < 0 || qb >= n {
			return member{}, fmt.Errorf("sim: invalid qubit pair (%d,%d)", qa, qb)
		}
		if d, ok := diag2QPhases(op); ok {
			return member{kind: kDiag2Q, qa: qa, qb: qb, d: d}, nil
		}
		if op.U == nil {
			switch op.Name {
			case "cx":
				return member{kind: kCX, qa: qa, qb: qb}, nil
			case "iswap":
				return member{kind: kMix, qa: qa, qb: qb, d: [4]complex128{iswapDiag, iswapOff}}, nil
			case "siswap":
				return member{kind: kMix, qa: qa, qb: qb, d: [4]complex128{siswapDiag, siswapOff}}, nil
			}
		}
		u, err := circuit.Unitary(op)
		if err != nil {
			return member{}, err
		}
		if u.Rows != 4 || u.Cols != 4 {
			return member{}, fmt.Errorf("sim: %s on two qubits needs a 4x4 matrix", op.Name)
		}
		return member{kind: kMat2Q, qa: qa, qb: qb, u: u}, nil
	}
	return member{}, fmt.Errorf("sim: %s: unsupported arity %d", op.Name, len(op.Qubits))
}

// ApplyOp applies one circuit op to the state: it validates and converts
// the op (opMember) and sweeps the whole amplitude array with the member's
// kernel.
func (s *State) ApplyOp(op circuit.Op) error {
	m, err := opMember(op, s.N)
	if err != nil {
		return err
	}
	s.apply(&m, s.Amp, 0)
	return nil
}

// apply runs a member's kernel over region, a block of the state whose
// first amplitude has global index base. region = s.Amp, base = 0 is a
// whole-array sweep; a layer pass hands in one tile at a time, and only
// diagonal members may have a stride outside it (their kernels read the
// qubit's bit from base). A kRelabel member has no kernel and moves nothing.
func (s *State) apply(m *member, region []complex128, base int) {
	switch m.kind {
	case kMat1Q:
		tileMat1Q(region, s.maskOf(m.qa), m.u)
	case kDiag1Q:
		tileDiag1Q(region, base, s.maskOf(m.qa), m.d[0], m.d[1])
	case kX:
		tileX(region, s.maskOf(m.qa))
	case kMat2Q:
		tileMat2Q(region, s.maskOf(m.qa), s.maskOf(m.qb), m.u)
	case kDiag2Q:
		tileDiag2Q(region, base, s.maskOf(m.qa), s.maskOf(m.qb), m.d)
	case kCX:
		tileCX(region, s.maskOf(m.qa), s.maskOf(m.qb))
	case kMix:
		tileMix(region, s.maskOf(m.qa), s.maskOf(m.qb), m.d[0], m.d[1])
	}
}

// tileMat1QGo applies a 2×2 over a region; mask < len(region).
func tileMat1QGo(region []complex128, mask int, u *linalg.Matrix) {
	u00, u01 := u.Data[0], u.Data[1]
	u10, u11 := u.Data[2], u.Data[3]
	for base := 0; base < len(region); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			j := i + mask
			a0, a1 := region[i], region[j]
			region[i] = u00*a0 + u01*a1
			region[j] = u10*a0 + u11*a1
		}
	}
}

// tileX applies Pauli-X over a region; mask < len(region).
func tileX(region []complex128, mask int) {
	for base := 0; base < len(region); base += mask << 1 {
		for i := base; i < base+mask; i++ {
			j := i + mask
			region[i], region[j] = region[j], region[i]
		}
	}
}

// tileDiag1Q applies diag(d0, d1) on a region at any stride: below the
// region size it is the strided phase sweep, skipping unit factors (so
// z/s/t/p touch only half the state); at or above it the qubit's bit is
// constant over the region — read it from the region's global base and do
// one scalar multiply.
func tileDiag1Q(region []complex128, gbase, mask int, d0, d1 complex128) {
	n := len(region)
	if mask < n {
		if d0 != 1 {
			scale(region, mask, n, 0, d0)
		}
		if d1 != 1 {
			scale(region, mask, n, mask, d1)
		}
		return
	}
	d := d0
	if gbase&mask != 0 {
		d = d1
	}
	if d != 1 {
		scale(region, n, n, 0, d)
	}
}

// tileDiag2Q applies diag(d) in the |qa qb⟩ basis on a region at any
// stride pair: each bit above the region is constant over it and selects
// a diagonal slice, reducing to a 1Q phase sweep or a scalar. Inside the
// region each non-unit diagonal entry gets its own tight multiply loop over
// its quarter of the indices — merged cp·cz ladders (only d11 ≠ 1) touch a
// quarter of the state with zero branch tests per amplitude.
func tileDiag2Q(region []complex128, gbase, maskA, maskB int, d [4]complex128) {
	inA, inB := maskA < len(region), maskB < len(region)
	switch {
	case inA && inB:
		if d[0] != 1 {
			diagQuarter(region, maskA, maskB, 0, d[0])
		}
		if d[1] != 1 {
			diagQuarter(region, maskA, maskB, maskB, d[1])
		}
		if d[2] != 1 {
			diagQuarter(region, maskA, maskB, maskA, d[2])
		}
		if d[3] != 1 {
			diagQuarter(region, maskA, maskB, maskA|maskB, d[3])
		}
	case inB: // qa's bit fixed over the region
		a := 0
		if gbase&maskA != 0 {
			a = 1
		}
		tileDiag1Q(region, gbase, maskB, d[2*a], d[2*a+1])
	default: // qb's bit fixed; tileDiag1Q reads qa's from gbase when it is too
		b := 0
		if gbase&maskB != 0 {
			b = 1
		}
		tileDiag1Q(region, gbase, maskA, d[b], d[2+b])
	}
}

// diagQuarter multiplies one quarter of a region's quad lattice — the
// indices congruent to off under the two masks — by a scalar.
func diagQuarter(region []complex128, maskA, maskB, off int, d complex128) {
	scale(region, min(maskA, maskB), max(maskA, maskB), off, d)
}

// scaleGo multiplies region[i] by d for every i in [mid+off, mid+off+lo),
// mid stepping by 2·lo over [outer, outer+hi) and outer by 2·hi over the
// region: with (lo, hi) = (mask, len(region)) it sweeps one half of a 1Q
// stride, with (len(region), len(region)) the whole region, with the
// sorted masks of a pair one quarter of its quads.
func scaleGo(region []complex128, lo, hi, off int, d complex128) {
	for outer := 0; outer < len(region); outer += hi << 1 {
		for mid := outer; mid < outer+hi; mid += lo << 1 {
			for i := mid + off; i < mid+off+lo; i++ {
				region[i] *= d
			}
		}
	}
}

// tileMat2QGo applies a 4×4 over a region, visiting each index quad
// (i00, i01, i10, i11) once; both masks below the region size.
func tileMat2QGo(region []complex128, maskA, maskB int, u *linalg.Matrix) {
	m00, m01, m02, m03 := u.At(0, 0), u.At(0, 1), u.At(0, 2), u.At(0, 3)
	m10, m11, m12, m13 := u.At(1, 0), u.At(1, 1), u.At(1, 2), u.At(1, 3)
	m20, m21, m22, m23 := u.At(2, 0), u.At(2, 1), u.At(2, 2), u.At(2, 3)
	m30, m31, m32, m33 := u.At(3, 0), u.At(3, 1), u.At(3, 2), u.At(3, 3)
	lo, hi := maskA, maskB
	if lo > hi {
		lo, hi = hi, lo
	}
	for outer := 0; outer < len(region); outer += hi << 1 {
		for mid := outer; mid < outer+hi; mid += lo << 1 {
			for i00 := mid; i00 < mid+lo; i00++ {
				i01, i10 := i00+maskB, i00+maskA
				i11 := i10 + maskB
				a00, a01, a10, a11 := region[i00], region[i01], region[i10], region[i11]
				region[i00] = m00*a00 + m01*a01 + m02*a10 + m03*a11
				region[i01] = m10*a00 + m11*a01 + m12*a10 + m13*a11
				region[i10] = m20*a00 + m21*a01 + m22*a10 + m23*a11
				region[i11] = m30*a00 + m31*a01 + m32*a10 + m33*a11
			}
		}
	}
}

// tileCX applies CNOT (qa controls) over a region: where the control is
// set, exchange the target pair.
func tileCX(region []complex128, maskA, maskB int) {
	lo, hi := maskA, maskB
	if lo > hi {
		lo, hi = hi, lo
	}
	for outer := 0; outer < len(region); outer += hi << 1 {
		for mid := outer; mid < outer+hi; mid += lo << 1 {
			for i00 := mid; i00 < mid+lo; i00++ {
				i10 := i00 + maskA
				i11 := i10 + maskB
				region[i10], region[i11] = region[i11], region[i10]
			}
		}
	}
}

// tileMix applies a unitary of the iSWAP-family inner-block form
//
//	[[1, 0,    0,    0],
//	 [0, diag, off,  0],
//	 [0, off,  diag, 0],
//	 [0, 0,    0,    1]]
//
// over a region (iSWAP: diag = cos(π/2), off = i; √iSWAP: diag = cos(π/4),
// off = i·sin(π/4)). Only the |01⟩/|10⟩ pair of each quad mixes — half the
// state is untouched and the 4×4 product collapses to a 2×2 rotation.
func tileMix(region []complex128, maskA, maskB int, diag, off complex128) {
	lo, hi := maskA, maskB
	if lo > hi {
		lo, hi = hi, lo
	}
	for outer := 0; outer < len(region); outer += hi << 1 {
		for mid := outer; mid < outer+hi; mid += lo << 1 {
			for i00 := mid; i00 < mid+lo; i00++ {
				i01, i10 := i00+maskB, i00+maskA
				a01, a10 := region[i01], region[i10]
				region[i01] = diag*a01 + off*a10
				region[i10] = off*a01 + diag*a10
			}
		}
	}
}
