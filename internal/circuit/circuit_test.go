package circuit

import (
	"math"
	"strings"
	"testing"

	"repro/internal/gates"
)

// TestFingerprintContentAddressing: equal circuits hash equal, and every
// kind of content change — gate name, qubit, parameter, width, op order,
// explicit unitary — changes the hash.
func TestFingerprintContentAddressing(t *testing.T) {
	build := func() *Circuit {
		c := New(3)
		c.H(0)
		c.CX(0, 1)
		c.RZ(2, 0.25)
		return c
	}
	a, b := build(), build()
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical circuits hash differently")
	}
	if a.Fingerprint() != a.Copy().Fingerprint() {
		t.Fatal("Copy changes the fingerprint")
	}
	mutations := map[string]func(*Circuit){
		"gate name":   func(c *Circuit) { c.Ops[0].Name = "x" },
		"qubit":       func(c *Circuit) { c.Ops[1].Qubits[1] = 2 },
		"param":       func(c *Circuit) { c.Ops[2].Params[0] = 0.5 },
		"width":       func(c *Circuit) { c.N = 4 },
		"extra op":    func(c *Circuit) { c.Z(0) },
		"op order":    func(c *Circuit) { c.Ops[0], c.Ops[1] = c.Ops[1], c.Ops[0] },
		"unitary set": func(c *Circuit) { c.Ops[1].U = gates.CX() },
	}
	for name, mutate := range mutations {
		m := build()
		mutate(m)
		if m.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s change not reflected in fingerprint", name)
		}
	}
	// Distinct unitaries with identical op metadata must differ.
	u1, u2 := New(2), New(2)
	u1.SU4(0, 1, gates.CX())
	u2.SU4(0, 1, gates.CZ())
	if u1.Fingerprint() == u2.Fingerprint() {
		t.Fatal("different unitaries share a fingerprint")
	}
}

func TestBuildersAndCounts(t *testing.T) {
	c := New(4)
	c.H(0)
	c.CX(0, 1)
	c.CX(1, 2)
	c.Swap(2, 3)
	c.RZ(3, 0.5)
	c.CP(0, 3, math.Pi/4)
	if got := c.CountTwoQubit(); got != 4 {
		t.Errorf("CountTwoQubit = %d, want 4", got)
	}
	if got := c.CountByName("cx"); got != 2 {
		t.Errorf("cx count = %d, want 2", got)
	}
	if got := c.CountByName("swap"); got != 1 {
		t.Errorf("swap count = %d, want 1", got)
	}
}

func TestAppendValidation(t *testing.T) {
	c := New(2)
	for name, f := range map[string]func(){
		"out of range": func() { c.CX(0, 5) },
		"repeated":     func() { c.CX(1, 1) },
		"negative":     func() { c.H(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// twoQ weighs each two-qubit gate 1, so CriticalPath(twoQ) is the number of
// 2Q gates along the critical path.
func twoQ(op Op) float64 {
	if op.Is2Q() {
		return 1
	}
	return 0
}

func TestDepth2Q(t *testing.T) {
	// Two parallel CX (disjoint qubits) then one CX depending on both.
	c := New(4)
	c.CX(0, 1)
	c.CX(2, 3)
	c.CX(1, 2)
	if d := c.CriticalPath(twoQ); d != 2 {
		t.Errorf("2Q depth = %v, want 2", d)
	}
	// 1Q gates add no depth.
	c2 := New(2)
	c2.H(0)
	c2.H(1)
	c2.CX(0, 1)
	c2.H(0)
	if d := c2.CriticalPath(twoQ); d != 1 {
		t.Errorf("2Q depth with 1Q gates = %v, want 1", d)
	}
}

func TestCriticalSwaps(t *testing.T) {
	c := New(4)
	c.Swap(0, 1) // chain on qubit 1
	c.Swap(1, 2)
	c.Swap(2, 3)
	c.Swap(0, 1) // depends only on the first two swaps via qubit 1... q0,q1
	if got := c.CriticalSwaps(); got != 3 {
		t.Errorf("CriticalSwaps = %d, want 3", got)
	}
	// Parallel swaps count once.
	p := New(4)
	p.Swap(0, 1)
	p.Swap(2, 3)
	if got := p.CriticalSwaps(); got != 1 {
		t.Errorf("parallel CriticalSwaps = %d, want 1", got)
	}
}

func TestWeightedCriticalPath(t *testing.T) {
	// CX (weight 1.0) followed by siswap (weight 0.5) on shared qubit.
	c := New(3)
	c.CX(0, 1)
	c.SqrtISwap(1, 2)
	w := func(op Op) float64 {
		switch op.Name {
		case "cx":
			return 1.0
		case "siswap":
			return 0.5
		}
		return 0
	}
	if got := c.CriticalPath(w); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("weighted critical path = %g, want 1.5", got)
	}
}

func TestLayers(t *testing.T) {
	c := New(4)
	c.CX(0, 1) // layer 0
	c.CX(2, 3) // layer 0
	c.CX(1, 2) // layer 1
	c.H(0)     // layer 1 (qubit 0 free after layer 0)
	layers := c.Layers()
	if len(layers) != 2 {
		t.Fatalf("layers = %d, want 2", len(layers))
	}
	if len(layers[0]) != 2 || len(layers[1]) != 2 {
		t.Fatalf("layer sizes = %d,%d want 2,2", len(layers[0]), len(layers[1]))
	}
}

func TestUnitaryResolution(t *testing.T) {
	names2q := []Op{
		{Name: "cx", Qubits: []int{0, 1}},
		{Name: "cz", Qubits: []int{0, 1}},
		{Name: "swap", Qubits: []int{0, 1}},
		{Name: "iswap", Qubits: []int{0, 1}},
		{Name: "siswap", Qubits: []int{0, 1}},
		{Name: "syc", Qubits: []int{0, 1}},
		{Name: "cp", Qubits: []int{0, 1}, Params: []float64{0.3}},
		{Name: "rzz", Qubits: []int{0, 1}, Params: []float64{0.3}},
		{Name: "can", Qubits: []int{0, 1}, Params: []float64{0.1, 0.2, 0.05}},
	}
	for _, op := range names2q {
		u, err := Unitary(op)
		if err != nil {
			t.Fatalf("%s: %v", op.Name, err)
		}
		if u.Rows != 4 || !u.IsUnitary(1e-10) {
			t.Errorf("%s: bad unitary", op.Name)
		}
	}
	if _, err := Unitary(Op{Name: "nope", Qubits: []int{0}}); err == nil {
		t.Error("unknown gate resolved")
	}
	// Explicit unitary wins.
	su4 := gates.SWAP()
	u, err := Unitary(Op{Name: "su4", Qubits: []int{0, 1}, U: su4})
	if err != nil || u != su4 {
		t.Error("explicit unitary not returned")
	}
}

func TestCopyIndependence(t *testing.T) {
	c := New(2)
	c.CX(0, 1)
	d := c.Copy()
	d.Ops[0].Qubits[0] = 1
	d.Ops[0].Qubits[1] = 0
	if c.Ops[0].Qubits[0] != 0 {
		t.Error("Copy shares qubit slices")
	}
}

func TestStringRendering(t *testing.T) {
	c := New(2)
	c.RZ(0, 0.5)
	c.CX(0, 1)
	s := c.String()
	if !strings.Contains(s, "rz(0.500) q0") || !strings.Contains(s, "cx q0,q1") {
		t.Errorf("rendering missing pieces:\n%s", s)
	}
}
