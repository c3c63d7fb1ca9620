// Package circuit provides the quantum-circuit intermediate representation
// used by the workload generators, transpiler, and simulator: a flat list of
// gate operations over integer qubits, with dependency-aware layering,
// two-qubit gate counting, and the critical-path duration metrics the paper
// reports (total gates for control-error-dominated systems, weighted
// critical path for decoherence-dominated systems; paper §3.1).
package circuit

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"repro/internal/gates"
	"repro/internal/linalg"
)

// Op is a single gate application. U optionally carries an explicit unitary
// (used for Haar-random SU(4) blocks in QuantumVolume and for synthesized
// gates); otherwise the unitary derives from Name and Params.
type Op struct {
	Name   string
	Qubits []int
	Params []float64
	U      *linalg.Matrix
}

// Is2Q reports whether the op acts on two qubits.
func (o Op) Is2Q() bool { return len(o.Qubits) == 2 }

// String renders ops like "cx q1,q3" or "rz(0.500) q2".
func (o Op) String() string {
	var sb strings.Builder
	sb.WriteString(o.Name)
	if len(o.Params) > 0 {
		sb.WriteString("(")
		for i, p := range o.Params {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "%.3f", p)
		}
		sb.WriteString(")")
	}
	sb.WriteString(" ")
	for i, q := range o.Qubits {
		if i > 0 {
			sb.WriteString(",")
		}
		fmt.Fprintf(&sb, "q%d", q)
	}
	return sb.String()
}

// Circuit is an ordered gate list over N qubits.
type Circuit struct {
	N   int
	Ops []Op
}

// New returns an empty circuit over n qubits.
func New(n int) *Circuit {
	if n < 1 {
		panic("circuit: need at least one qubit")
	}
	return &Circuit{N: n}
}

// Copy returns a deep copy (ops are copied; unitaries are shared, they are
// immutable by convention).
func (c *Circuit) Copy() *Circuit {
	out := &Circuit{N: c.N, Ops: make([]Op, len(c.Ops))}
	for i, op := range c.Ops {
		q := make([]int, len(op.Qubits))
		copy(q, op.Qubits)
		p := make([]float64, len(op.Params))
		copy(p, op.Params)
		out.Ops[i] = Op{Name: op.Name, Qubits: q, Params: p, U: op.U}
	}
	return out
}

// Fingerprint returns a content hash of the circuit: width plus every op's
// name, qubits, params, and (when present) explicit unitary, in order. Two
// circuits with equal fingerprints are the same computation gate-for-gate
// (up to 64-bit FNV collisions) — the property the content-addressed
// Evaluate cache keys on. Explicit unitaries are hashed by their exact
// float bit patterns, so Haar-random QuantumVolume blocks from different
// seeds never alias.
func (c *Circuit) Fingerprint() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeU := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	writeU(uint64(c.N))
	for _, op := range c.Ops {
		writeU(uint64(len(op.Name)))
		h.Write([]byte(op.Name))
		writeU(uint64(len(op.Qubits)))
		for _, q := range op.Qubits {
			writeU(uint64(q))
		}
		writeU(uint64(len(op.Params)))
		for _, p := range op.Params {
			writeU(math.Float64bits(p))
		}
		if op.U == nil {
			writeU(0)
			continue
		}
		writeU(uint64(op.U.Rows)<<32 | uint64(op.U.Cols))
		for _, z := range op.U.Data {
			writeU(math.Float64bits(real(z)))
			writeU(math.Float64bits(imag(z)))
		}
	}
	return h.Sum64()
}

// Append adds an op after validating qubit indices.
func (c *Circuit) Append(op Op) {
	if len(op.Qubits) < 1 || len(op.Qubits) > 2 {
		panic(fmt.Sprintf("circuit: op %q has %d qubits", op.Name, len(op.Qubits)))
	}
	for _, q := range op.Qubits {
		if q < 0 || q >= c.N {
			panic(fmt.Sprintf("circuit: op %q qubit %d out of range [0,%d)", op.Name, q, c.N))
		}
	}
	if len(op.Qubits) == 2 && op.Qubits[0] == op.Qubits[1] {
		panic(fmt.Sprintf("circuit: op %q repeats qubit %d", op.Name, op.Qubits[0]))
	}
	c.Ops = append(c.Ops, op)
}

// 1Q builder helpers.

func (c *Circuit) H(q int)   { c.Append(Op{Name: "h", Qubits: []int{q}}) }
func (c *Circuit) X(q int)   { c.Append(Op{Name: "x", Qubits: []int{q}}) }
func (c *Circuit) Z(q int)   { c.Append(Op{Name: "z", Qubits: []int{q}}) }
func (c *Circuit) S(q int)   { c.Append(Op{Name: "s", Qubits: []int{q}}) }
func (c *Circuit) T(q int)   { c.Append(Op{Name: "t", Qubits: []int{q}}) }
func (c *Circuit) Tdg(q int) { c.Append(Op{Name: "tdg", Qubits: []int{q}}) }
func (c *Circuit) RX(q int, th float64) {
	c.Append(Op{Name: "rx", Qubits: []int{q}, Params: []float64{th}})
}
func (c *Circuit) RZ(q int, th float64) {
	c.Append(Op{Name: "rz", Qubits: []int{q}, Params: []float64{th}})
}
func (c *Circuit) U3(q int, th, ph, lam float64) {
	c.Append(Op{Name: "u3", Qubits: []int{q}, Params: []float64{th, ph, lam}})
}

// 2Q builder helpers.

func (c *Circuit) CX(ctl, tgt int) { c.Append(Op{Name: "cx", Qubits: []int{ctl, tgt}}) }
func (c *Circuit) CZ(a, b int)     { c.Append(Op{Name: "cz", Qubits: []int{a, b}}) }
func (c *Circuit) Swap(a, b int)   { c.Append(Op{Name: "swap", Qubits: []int{a, b}}) }
func (c *Circuit) ISwap(a, b int)  { c.Append(Op{Name: "iswap", Qubits: []int{a, b}}) }
func (c *Circuit) SqrtISwap(a, b int) {
	c.Append(Op{Name: "siswap", Qubits: []int{a, b}})
}
func (c *Circuit) CP(a, b int, th float64) {
	c.Append(Op{Name: "cp", Qubits: []int{a, b}, Params: []float64{th}})
}
func (c *Circuit) RZZ(a, b int, th float64) {
	c.Append(Op{Name: "rzz", Qubits: []int{a, b}, Params: []float64{th}})
}

// SU4 appends an explicit two-qubit unitary block (e.g. a Haar-random
// QuantumVolume element).
func (c *Circuit) SU4(a, b int, u *linalg.Matrix) {
	if u.Rows != 4 || u.Cols != 4 {
		panic("circuit: SU4 needs a 4x4 unitary")
	}
	c.Append(Op{Name: "su4", Qubits: []int{a, b}, U: u})
}

// Unitary resolves an op to its matrix (2x2 for 1Q, 4x4 for 2Q).
//
// Parameterless gates resolve to matrices memoized by package gates, and
// an op carrying an explicit U returns it directly — in both cases the
// result is shared, not a copy, and must be treated as immutable (the
// same convention Circuit.Copy relies on).
func Unitary(op Op) (*linalg.Matrix, error) {
	if op.U != nil {
		return op.U, nil
	}
	p := func(i int) float64 { return op.Params[i] }
	switch op.Name {
	case "id":
		return gates.I2(), nil
	case "h":
		return gates.H(), nil
	case "x":
		return gates.X(), nil
	case "y":
		return gates.Y(), nil
	case "z":
		return gates.Z(), nil
	case "s":
		return gates.S(), nil
	case "sdg":
		return gates.Sdg(), nil
	case "t":
		return gates.T(), nil
	case "tdg":
		return gates.Tdg(), nil
	case "sx":
		return gates.SX(), nil
	case "rx":
		return gates.RX(p(0)), nil
	case "ry":
		return gates.RY(p(0)), nil
	case "rz":
		return gates.RZ(p(0)), nil
	case "p":
		return gates.Phase(p(0)), nil
	case "u3":
		return gates.U3(p(0), p(1), p(2)), nil
	case "cx":
		return gates.CX(), nil
	case "cz":
		return gates.CZ(), nil
	case "cp":
		return gates.CPhase(p(0)), nil
	case "swap":
		return gates.SWAP(), nil
	case "iswap":
		return gates.ISwap(), nil
	case "siswap":
		return gates.SqrtISwap(), nil
	case "syc":
		return gates.SYC(), nil
	case "rzz":
		return gates.RZZ(p(0)), nil
	case "rxx":
		return gates.RXX(p(0)), nil
	case "ryy":
		return gates.RYY(p(0)), nil
	case "zx":
		return gates.ZX(p(0)), nil
	case "can":
		return gates.Canonical(p(0), p(1), p(2)), nil
	default:
		return nil, fmt.Errorf("circuit: unknown gate %q", op.Name)
	}
}

// CountTwoQubit returns the number of 2Q ops.
func (c *Circuit) CountTwoQubit() int {
	n := 0
	for _, op := range c.Ops {
		if op.Is2Q() {
			n++
		}
	}
	return n
}

// CountByName returns the number of ops with the given gate name.
func (c *Circuit) CountByName(name string) int {
	n := 0
	for _, op := range c.Ops {
		if op.Name == name {
			n++
		}
	}
	return n
}

// CriticalPath returns the maximum accumulated weight along any dependency
// chain, where each op contributes weight(op) and ops on a shared qubit are
// ordered. With weight = 1 for 2Q ops this is the paper's "critical path
// gate count"; with weight = pulse duration it is the circuit duration.
func (c *Circuit) CriticalPath(weight func(Op) float64) float64 {
	level := make([]float64, c.N)
	var worst float64
	for _, op := range c.Ops {
		start := 0.0
		for _, q := range op.Qubits {
			if level[q] > start {
				start = level[q]
			}
		}
		end := start + weight(op)
		for _, q := range op.Qubits {
			level[q] = end
		}
		if end > worst {
			worst = end
		}
	}
	return worst
}

// CriticalSwaps counts SWAP gates along the critical path.
func (c *Circuit) CriticalSwaps() int {
	return int(c.CriticalPath(func(op Op) float64 {
		if op.Name == "swap" {
			return 1
		}
		return 0
	}) + 0.5)
}

// Layers groups op indices into ASAP levels: ops in the same layer act on
// disjoint qubits and all their dependencies are in earlier layers.
func (c *Circuit) Layers() [][]int {
	level := make([]int, c.N)
	var layers [][]int
	for i, op := range c.Ops {
		lv := 0
		for _, q := range op.Qubits {
			if level[q] > lv {
				lv = level[q]
			}
		}
		for _, q := range op.Qubits {
			level[q] = lv + 1
		}
		for len(layers) <= lv {
			layers = append(layers, nil)
		}
		layers[lv] = append(layers[lv], i)
	}
	return layers
}

// CompactQubits returns an equivalent circuit over only the qubits the
// circuit actually touches (relabeled densely in first-use order), plus the
// mapping from old to new indices (-1 for untouched qubits). Useful for
// simulating wide-machine circuits that occupy few physical qubits.
func (c *Circuit) CompactQubits() (*Circuit, []int) {
	mapping := make([]int, c.N)
	for i := range mapping {
		mapping[i] = -1
	}
	next := 0
	for _, op := range c.Ops {
		for _, q := range op.Qubits {
			if mapping[q] < 0 {
				mapping[q] = next
				next++
			}
		}
	}
	if next == 0 {
		// No ops: return a trivial 1-qubit circuit.
		return New(1), mapping
	}
	out := New(next)
	for _, op := range c.Ops {
		q := make([]int, len(op.Qubits))
		for i, v := range op.Qubits {
			q[i] = mapping[v]
		}
		out.Append(Op{Name: op.Name, Qubits: q, Params: op.Params, U: op.U})
	}
	return out, mapping
}

// AppendCircuit inlines another circuit's ops (same qubit space).
func (c *Circuit) AppendCircuit(other *Circuit) {
	if other.N > c.N {
		panic("circuit: AppendCircuit source has more qubits than target")
	}
	for _, op := range other.Ops {
		c.Append(op)
	}
}

// String renders one op per line.
func (c *Circuit) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "circuit(%d qubits, %d ops)\n", c.N, len(c.Ops))
	for _, op := range c.Ops {
		sb.WriteString("  " + op.String() + "\n")
	}
	return sb.String()
}
