package sim

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/gates"
)

// TestApply2QRepeatedQubit pins the repeated-qubit contract: a descriptive
// error, and the state untouched (the old "invalid pair" check caught this
// too, but the message now names the actual mistake; these tests keep both
// properties from regressing).
func TestApply2QRepeatedQubit(t *testing.T) {
	s, err := NewState(3)
	if err != nil {
		t.Fatal(err)
	}
	s.Amp[0], s.Amp[5] = 0.6, 0.8i
	before := append([]complex128(nil), s.Amp...)
	err = s.Apply2Q(1, 1, gates.CX())
	if err == nil {
		t.Fatal("Apply2Q(1,1) succeeded; want repeated-qubit error")
	}
	if !strings.Contains(err.Error(), "distinct") || !strings.Contains(err.Error(), "1") {
		t.Fatalf("Apply2Q(1,1) error %q does not describe the repeated qubit", err)
	}
	for i := range before {
		if s.Amp[i] != before[i] {
			t.Fatalf("Apply2Q(1,1) corrupted amplitude %d: %v -> %v", i, before[i], s.Amp[i])
		}
	}
}

// TestApplyOpRepeatedQubit covers the 2Q validation opMember shares with
// the generic path: every specialized gate must reject a repeated qubit
// with a descriptive error, not corrupt the state. (circuit.Append already
// panics on such ops; these ops are built directly to reach the kernels.)
func TestApplyOpRepeatedQubit(t *testing.T) {
	for _, name := range []string{"cz", "cx", "swap", "iswap", "siswap"} {
		s, err := NewState(2)
		if err != nil {
			t.Fatal(err)
		}
		err = s.ApplyOp(circuit.Op{Name: name, Qubits: []int{0, 0}})
		if err == nil {
			t.Fatalf("%s on (0,0) succeeded; want repeated-qubit error", name)
		}
		if !strings.Contains(err.Error(), "distinct") {
			t.Fatalf("%s on (0,0): error %q does not describe the repeated qubit", name, err)
		}
		if s.Amp[0] != 1 {
			t.Fatalf("%s on (0,0) corrupted the state", name)
		}
	}
	// The parameterized diagonal kernels validate through the same gate.
	s, _ := NewState(2)
	if err := s.ApplyOp(circuit.Op{Name: "cp", Qubits: []int{1, 1}, Params: []float64{0.5}}); err == nil || !strings.Contains(err.Error(), "distinct") {
		t.Fatalf("cp on (1,1): got %v, want repeated-qubit error", err)
	}
	// Fused programs keep hand-built repeated-qubit ops as source ops that
	// fail the same validation when they run.
	c := &circuit.Circuit{N: 2, Ops: []circuit.Op{{Name: "cx", Qubits: []int{0, 0}}}}
	st, _ := NewState(2)
	if err := st.Run(c); err == nil || !strings.Contains(err.Error(), "distinct") {
		t.Fatalf("fused Run over repeated-qubit cx: got %v, want repeated-qubit error", err)
	}
}
