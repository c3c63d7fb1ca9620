package qasm

import (
	"context"
	"math"
	"math/cmplx"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/gates"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func roundTrip(t *testing.T, c *circuit.Circuit, opt Options) {
	t.Helper()
	src, err := Export(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Import(src)
	if err != nil {
		t.Fatalf("import failed: %v\nsource:\n%s", err, src)
	}
	if back.N != c.N {
		t.Fatalf("width changed: %d vs %d", back.N, c.N)
	}
	want, err := sim.RunCircuitCtx(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunCircuitCtx(context.Background(), back)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := want.Inner(got)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cmplx.Abs(ip)-1) > 1e-8 {
		t.Fatalf("round trip changed semantics: overlap %g\nsource:\n%s", cmplx.Abs(ip), src)
	}
}

func TestRoundTripWorkloads(t *testing.T) {
	roundTrip(t, workloads.GHZ(6), Options{})
	roundTrip(t, workloads.QFT(5, true), Options{})
	roundTrip(t, workloads.Adder(2), Options{})
	roundTrip(t, workloads.TIMHamiltonian(5, 2), Options{})
}

func TestRoundTripNonStandardGates(t *testing.T) {
	c := circuit.New(3)
	c.ISwap(0, 1)
	c.SqrtISwap(1, 2)
	c.Append(circuit.Op{Name: "syc", Qubits: []int{0, 2}})
	c.SU4(0, 1, gates.RandomSU4(rand.New(rand.NewSource(1))))
	// Without expansion these must fail...
	if _, err := Export(c, Options{}); err == nil {
		t.Fatal("non-standard gates exported without expansion")
	}
	// ...with expansion they round-trip exactly.
	roundTrip(t, c, Options{ExpandNonStandard: true})
}

func TestExportFormat(t *testing.T) {
	c := circuit.New(2)
	c.H(0)
	c.CX(0, 1)
	c.RZ(1, math.Pi/4)
	src, err := Export(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"OPENQASM 2.0;", "qreg q[2];", "h q[0];", "cx q[0],q[1];", "rz("} {
		if !strings.Contains(src, want) {
			t.Errorf("missing %q in:\n%s", want, src)
		}
	}
}

func TestImportAliasesAndExpressions(t *testing.T) {
	src := `
OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
u1(pi/2) q[0];      // alias for p
cu1(-pi/4) q[0],q[1];
u3(pi/2, 0, pi) q[1];
rz(2*pi/8) q[0];
rx(1.5e-1) q[1];
`
	c, err := Import(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Ops) != 5 {
		t.Fatalf("parsed %d ops, want 5", len(c.Ops))
	}
	if c.Ops[0].Name != "p" || math.Abs(c.Ops[0].Params[0]-math.Pi/2) > 1e-12 {
		t.Errorf("u1 alias wrong: %v", c.Ops[0])
	}
	if c.Ops[1].Name != "cp" || math.Abs(c.Ops[1].Params[0]+math.Pi/4) > 1e-12 {
		t.Errorf("cu1 alias wrong: %v", c.Ops[1])
	}
	if math.Abs(c.Ops[3].Params[0]-math.Pi/4) > 1e-12 {
		t.Errorf("expression 2*pi/8 = %g", c.Ops[3].Params[0])
	}
	if math.Abs(c.Ops[4].Params[0]-0.15) > 1e-12 {
		t.Errorf("scientific literal = %g", c.Ops[4].Params[0])
	}
}

func TestImportErrors(t *testing.T) {
	cases := map[string]string{
		"no qreg":      `OPENQASM 2.0; h q[0];`,
		"unknown gate": "qreg q[2];\nmagic q[0];",
		"bad register": "qreg q[2];\nh r[0];",
		"bad expr":     "qreg q[1];\nrz(pi+) q[0];",
		"double qreg":  "qreg q[2];\nqreg r[2];",
	}
	for name, src := range cases {
		if _, err := Import(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestEvalExprEdgeCases exercises the parameter-expression parser directly:
// π token boundaries (the old parser read any "pi"-prefixed token as π, so
// "pix" silently evaluated to π), unary minus, scientific notation, nested
// parens, and malformed input.
func TestEvalExprEdgeCases(t *testing.T) {
	good := map[string]float64{
		"pi":          math.Pi,
		"-pi/2":       -math.Pi / 2,
		"2*pi/8":      math.Pi / 4,
		"(pi)":        math.Pi,
		"pi*pi":       math.Pi * math.Pi,
		"--1":         1,
		"-(2+3)":      -5,
		"1.5e-1":      0.15,
		"2E+3":        2000,
		"1e3/4":       250,
		" 1 + 2 * 3 ": 7,
		"3-pi":        3 - math.Pi,
	}
	for expr, want := range good {
		got, err := evalExpr(expr)
		if err != nil {
			t.Errorf("%q: %v", expr, err)
			continue
		}
		if math.Abs(got-want) > 1e-12 {
			t.Errorf("%q = %g, want %g", expr, got, want)
		}
	}
	bad := []string{
		"pix",     // identifier, not π with trailing 'x'
		"pi2",     // likewise
		"pi_half", // likewise
		"2*pix",
		"",
		"1/0",
		"(pi",
		"pi+",
		"1..2",
		"e5", // exponent with no mantissa
		"1 2",
	}
	for _, expr := range bad {
		if v, err := evalExpr(expr); err == nil {
			t.Errorf("%q: accepted as %g", expr, v)
		}
	}
}

// TestImportPiBoundaryRegression pins the fix end-to-end: a gate parameter
// spelled "pix" must fail the import instead of parsing as π.
func TestImportPiBoundaryRegression(t *testing.T) {
	if _, err := Import("qreg q[1];\nrz(pix) q[0];"); err == nil {
		t.Fatal("rz(pix) accepted — 'pi' needs a token boundary")
	}
	// The boundary must not break legitimate uses where 'pi' ends at a
	// non-identifier character.
	c, err := Import("qreg q[1];\nrz(pi/2) q[0];\nrz(-pi) q[0];\nrz(pi) q[0];")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.Ops[2].Params[0]-math.Pi) > 1e-12 {
		t.Fatalf("rz(pi) = %g", c.Ops[2].Params[0])
	}
}

func TestZYZAnglesProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := gates.RandomSU2(r)
		th, ph, lm := ZYZAngles(u)
		return gates.U3(th, ph, lm).EqualUpToPhase(u, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rng}); err != nil {
		t.Fatal(err)
	}
	// Edge cases: diagonal and anti-diagonal unitaries.
	diag := gates.RZ(0.7)
	th, ph, lm := ZYZAngles(diag)
	if !gates.U3(th, ph, lm).EqualUpToPhase(diag, 1e-9) {
		t.Error("ZYZ failed on diagonal")
	}
	anti := gates.X()
	th, ph, lm = ZYZAngles(anti)
	if !gates.U3(th, ph, lm).EqualUpToPhase(anti, 1e-9) {
		t.Error("ZYZ failed on anti-diagonal")
	}
}
