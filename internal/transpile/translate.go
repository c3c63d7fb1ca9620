package transpile

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/circuit"
	"repro/internal/linalg"
	"repro/internal/weyl"
)

// basisGateName is the op name emitted for each application of the target
// basis gate during translation. An unrecognized basis is a caller error,
// reported as such rather than a panic: translation entry points validate
// the basis up front so a bad value can never detonate mid-circuit (or
// reach weyl.Basis.NumGates, which would panic on it).
func basisGateName(b weyl.Basis) (string, error) {
	switch b {
	case weyl.BasisCX:
		return "cx", nil
	case weyl.BasisSqrtISwap:
		return "siswap", nil
	case weyl.BasisSYC:
		return "syc", nil
	case weyl.BasisISwap:
		return "iswap", nil
	default:
		return "", fmt.Errorf("transpile: unknown basis %v", b)
	}
}

// gateKey identifies a 2Q gate's local-equivalence class inputs for the
// process-wide coordinate memo: the gate name and parameters for named
// gates, a content fingerprint of the matrix bits for explicit unitaries.
// Like the content-addressed Evaluate cache, aliasing is possible only via
// a 64-bit fingerprint collision between distinct matrices.
type gateKey struct {
	name       string
	np         int8
	hasU       bool
	p0, p1, p2 float64
	ufp        uint64
}

// coordMemo caches weyl.Coordinates per gate identity across all
// translations in the process. Weyl coordinates are basis-independent, so
// one entry serves every (machine, basis) pair a sweep routes the same
// logical gate through — on the co-design sweeps this removes ~80% of the
// eigensolver work, which dominated translation allocations.
var coordMemo struct {
	sync.RWMutex
	m map[gateKey]weyl.Coord
}

// coordMemoLimit bounds the memo; at the limit the map is reset rather than
// evicted (keys are tiny and sweeps re-warm in one pass).
const coordMemoLimit = 1 << 15

// matrixFingerprint hashes a matrix's exact float bit patterns (FNV-style
// mix per word), so explicit unitaries from different random draws never
// alias except by 64-bit collision.
func matrixFingerprint(m *linalg.Matrix) uint64 {
	h := uint64(14695981039346656037)
	const prime = 1099511628211
	h = (h ^ uint64(m.Rows)) * prime
	h = (h ^ uint64(m.Cols)) * prime
	for _, z := range m.Data {
		h = (h ^ math.Float64bits(real(z))) * prime
		h = (h ^ math.Float64bits(imag(z))) * prime
	}
	return h
}

// classify returns the Weyl-chamber coordinates of a 2Q op through the
// process-wide memo.
func classify(op circuit.Op) (weyl.Coord, error) {
	key := gateKey{name: op.Name, np: int8(len(op.Params))}
	memoizable := len(op.Params) <= 3
	if memoizable {
		for i, p := range op.Params {
			switch i {
			case 0:
				key.p0 = p
			case 1:
				key.p1 = p
			case 2:
				key.p2 = p
			}
		}
		if op.U != nil {
			key.hasU = true
			key.ufp = matrixFingerprint(op.U)
		}
		coordMemo.RLock()
		c, ok := coordMemo.m[key]
		coordMemo.RUnlock()
		if ok {
			return c, nil
		}
	}
	u, err := circuit.Unitary(op)
	if err != nil {
		return weyl.Coord{}, err
	}
	coord, err := weyl.Coordinates(u)
	if err != nil {
		return weyl.Coord{}, fmt.Errorf("transpile: classifying %s: %w", op.Name, err)
	}
	if memoizable {
		coordMemo.Lock()
		if coordMemo.m == nil || len(coordMemo.m) >= coordMemoLimit {
			coordMemo.m = make(map[gateKey]weyl.Coord, 256)
		}
		coordMemo.m[key] = coord
		coordMemo.Unlock()
	}
	return coord, nil
}

// basisCount classifies one 2Q op and returns its basis-gate cost.
func basisCount(op circuit.Op, b weyl.Basis) (int, error) {
	coord, err := classify(op)
	if err != nil {
		return 0, err
	}
	return b.NumGates(coord), nil
}

// zeroU3Params is the shared parameter payload of every placeholder u3 the
// translation emits (immutable by the same convention as shared unitaries;
// its capacity is pinned so an append can never write through it).
var zeroU3Params = make([]float64, 3)

// TranslateToBasis rewrites every two-qubit gate as k applications of the
// target basis gate interleaved with single-qubit layers, where k comes from
// the exact KAK/Weyl-chamber counting rules (paper §2.3 and Observation 1).
// Single-qubit gates pass through. The interleaved 1Q gates are emitted as
// placeholder u3 ops: the paper's metrics treat 1Q gates as free (§3.1), so
// only their positions matter for scheduling.
//
// Weyl coordinates are memoized process-wide per gate identity (classify),
// and a counting pass sizes the output ops and one block for their qubit
// lists, so translating a routed sweep cell makes a few allocations, not
// one per gate.
func TranslateToBasis(c *circuit.Circuit, b weyl.Basis) (*circuit.Circuit, error) {
	name, err := basisGateName(b)
	if err != nil {
		return nil, err
	}
	// Counting pass: each 2Q gate's basis count (k applications between
	// k+1 pairs of u3s, or just one pair when k = 0), so the output and its
	// qubit lists are sized exactly and never regrow.
	ks := make([]uint8, 0, c.CountTwoQubit())
	size, ints := 0, 0
	for _, op := range c.Ops {
		if !op.Is2Q() {
			size++
			continue
		}
		k, err := basisCount(op, b)
		if err != nil {
			return nil, err
		}
		ks = append(ks, uint8(k))
		size += 3*k + 2
		ints += 4*k + 2
	}
	out := circuit.New(c.N)
	out.Ops = make([]circuit.Op, 0, size)
	qubits := intArena{buf: make([]int, ints)}
	u3 := func(q int) {
		qs := qubits.take(1)
		qs[0] = q
		out.Append(circuit.Op{Name: "u3", Qubits: qs, Params: zeroU3Params})
	}
	for _, op := range c.Ops {
		if !op.Is2Q() {
			// Passed through as is: it was validated when c was built.
			out.Ops = append(out.Ops, op)
			continue
		}
		k := int(ks[0])
		ks = ks[1:]
		q0, q1 := op.Qubits[0], op.Qubits[1]
		if k == 0 {
			// Locally equivalent to identity: absorb into 1Q frames.
			u3(q0)
			u3(q1)
			continue
		}
		for i := 0; i < k; i++ {
			u3(q0)
			u3(q1)
			qs := qubits.take(2)
			qs[0], qs[1] = q0, q1
			out.Append(circuit.Op{Name: name, Qubits: qs})
		}
		u3(q0)
		u3(q1)
	}
	return out, nil
}

// BasisCounts is what the paper's metrics read from a translated circuit
// (Fig. 10), counted without building it: the basis-gate total, the basis
// gates on the critical path, and the duration-weighted critical path.
type BasisCounts struct {
	Total2Q       int
	Critical2Q    int
	PulseDuration float64
}

// countBasis measures the translation of c into basis b without building
// it: Total2Q is TranslateToBasis(c, b).CountTwoQubit(), Critical2Q its
// Critical2Q and PulseDuration its PulseDurationTable under durations,
// bit for bit. One walk replays, for both critical paths, the op sequence
// TranslateToBasis would emit — each 2Q gate of basis count k as u3 frames
// around k basis-gate applications (two u3s alone when k = 0, so it does
// not synchronize its qubits), every other op passed through — through
// CriticalPath's level arithmetic, adding a basis gate's weight once per
// application. It allocates the two level slices and nothing else.
func countBasis(c *circuit.Circuit, b weyl.Basis, durations map[string]float64) (BasisCounts, error) {
	name, err := basisGateName(b)
	if err != nil {
		return BasisCounts{}, err
	}
	dur := durations[name]
	depth := frontier{level: make([]float64, c.N)} // weight 1 per basis gate
	pulse := frontier{level: make([]float64, c.N)} // weight dur per basis gate
	total := 0
	for _, op := range c.Ops {
		if !op.Is2Q() {
			depth.step(op.Qubits, 0)
			pulse.step(op.Qubits, 0)
			continue
		}
		k, err := basisCount(op, b)
		if err != nil {
			return BasisCounts{}, err
		}
		total += k
		pair := [2]int{op.Qubits[0], op.Qubits[1]}
		u3s := func() {
			for i := range pair {
				depth.step(pair[i:i+1], 0)
				pulse.step(pair[i:i+1], 0)
			}
		}
		for i := 0; i < k; i++ {
			u3s()
			depth.step(pair[:], 1)
			pulse.step(pair[:], dur)
		}
		u3s()
	}
	return BasisCounts{
		Total2Q:       total,
		Critical2Q:    int(depth.worst + 0.5),
		PulseDuration: pulse.worst,
	}, nil
}

// frontier is circuit.CriticalPath's state, advanced one op at a time:
// level[q] is the accumulated weight at qubit q's frontier, worst the
// largest seen.
type frontier struct {
	level []float64
	worst float64
}

// step advances the frontier over an op on qs of weight w, with
// CriticalPath's arithmetic: the op starts at the latest level among qs
// (never below 0) and every qubit in qs ends at start + w.
func (f *frontier) step(qs []int, w float64) {
	start := 0.0
	for _, q := range qs {
		if f.level[q] > start {
			start = f.level[q]
		}
	}
	end := start + w
	for _, q := range qs {
		f.level[q] = end
	}
	if end > f.worst {
		f.worst = end
	}
}

// PulseDuration returns the duration-weighted critical path of a translated
// circuit: each application of the basis gate costs its relative pulse
// length (√iSWAP = 0.5, CX/SYC/iSWAP = 1.0), 1Q gates are free (paper §3.1).
func PulseDuration(c *circuit.Circuit, b weyl.Basis) float64 {
	name, err := basisGateName(b)
	if err != nil {
		// No circuit can have been translated to an unknown basis, so its
		// basis-gate critical path is vacuously zero.
		return 0
	}
	dur := b.Duration()
	return c.CriticalPath(func(op circuit.Op) float64 {
		if op.Name == name && op.Is2Q() {
			return dur
		}
		return 0
	})
}

// PulseDurationTable returns the duration-weighted critical path of a
// circuit under a per-gate-type timing table: each two-qubit gate costs
// durations[name] pulse units (0 when absent), 1Q gates are free. This is
// the per-architecture generalization of PulseDuration — with the default
// table (arch.DefaultTiming) it reproduces PulseDuration's numbers exactly
// on translated circuits, and it prices mixed-basis circuits (heterogeneous
// translation, pre-translation routed circuits with explicit swaps) that a
// single-basis weighting cannot.
func PulseDurationTable(c *circuit.Circuit, durations map[string]float64) float64 {
	return c.CriticalPath(func(op circuit.Op) float64 {
		if !op.Is2Q() {
			return 0
		}
		return durations[op.Name]
	})
}

// Critical2Q returns the number of basis-gate applications on the critical
// path of a translated circuit.
func Critical2Q(c *circuit.Circuit) int {
	return c.Depth2Q()
}
