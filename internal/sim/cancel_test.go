package sim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/circuit"
)

// TestRunProgramCtxCancel: a dead context stops the schedule at its
// per-sweep poll and surfaces ctx.Err(); a live context changes nothing.
func TestRunProgramCtxCancel(t *testing.T) {
	c := circuit.New(3)
	c.Append(circuit.Op{Name: "h", Qubits: []int{0}})
	c.Append(circuit.Op{Name: "cx", Qubits: []int{0, 1}})
	c.Append(circuit.Op{Name: "cx", Qubits: []int{1, 2}})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunCircuitCtx(ctx, c); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx = %v, want context.Canceled", err)
	}
	want, err := RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Amp {
		if want.Amp[i] != got.Amp[i] {
			t.Fatalf("amp %d diverged under a live context", i)
		}
	}
}
