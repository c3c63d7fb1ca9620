package arch

import (
	"math"
	"strings"
	"testing"
)

func TestNoiseSpecRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"grid:e2q=0.002,rows=4",
		"grid:cols=4,e2q=0.001,e2q-0-1=0.05,e2q-2-3=0.1,rows=4,tdec=0.003",
		"hypercube:dim=3,tdec=0.01",
	} {
		a := mustParse(t, spec)
		if a.Noise == nil {
			t.Fatalf("Parse(%q) dropped the noise profile", spec)
		}
		back := mustParse(t, a.String())
		if !a.Equal(back) {
			t.Fatalf("round trip %q -> %q -> not equal", spec, a.String())
		}
	}
}

func TestNoiseSpecValidation(t *testing.T) {
	for _, spec := range []string{
		"grid:rows=4,e2q=1.0",     // probability must be < 1
		"grid:rows=4,e2q=-0.1",    // negative probability
		"grid:rows=4,e2q=abc",     // not a number
		"grid:rows=4,tdec=-1",     // negative rate
		"grid:rows=4,e2q-0-0=0.1", // self-edge
		"grid:rows=4,e2q-0=0.1",   // malformed edge key
		"grid:rows=4,e2q--1-2=0.1",
		"grid:rows=4,e2q-0-1=1.5",
		"grid:rows=4,e2q=NaN", // NaN passes every range comparison
		"grid:rows=4,tdec=Inf",
		"grid:rows=4,e2q-0-1=nan",
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid noise key", spec)
		}
	}
}

// TestAllZeroNoiseNormalizesToNil: explicit zero noise keys parse to a nil
// profile, so "grid:rows=4,e2q=0" and "grid:rows=4" are the same Arch —
// String round-trips exactly and Equal treats them as identical.
func TestAllZeroNoiseNormalizesToNil(t *testing.T) {
	zero := mustParse(t, "grid:rows=4,cols=4,e2q=0,tdec=0")
	if zero.Noise != nil {
		t.Fatalf("all-zero noise profile survived parsing: %+v", zero.Noise)
	}
	plain := mustParse(t, "grid:rows=4,cols=4")
	if !zero.Equal(plain) {
		t.Fatal("zero-noise spec != noise-free spec")
	}
	if strings.Contains(zero.String(), "e2q") {
		t.Fatalf("canonical form leaked zero noise keys: %s", zero.String())
	}
}

func TestParseNoise(t *testing.T) {
	p, err := ParseNoise("e2q=0.002,tdec=0.001,e2q-3-1=0.05")
	if err != nil {
		t.Fatal(err)
	}
	if p.E2Q != 0.002 || p.TDec != 0.001 {
		t.Fatalf("base rates wrong: %+v", p)
	}
	// Edge keys store order-insensitively as (low, high).
	if p.EdgeE2Q[[2]int{1, 3}] != 0.05 {
		t.Fatalf("edge override missing: %+v", p.EdgeE2Q)
	}
	// All-zero parses to the nil (noiseless) profile, mirroring the spec
	// grammar's normalization; -0 is that zero, so it prints and hashes
	// like 0.
	if p, err := ParseNoise("e2q=0,tdec=-0"); err != nil || p != nil {
		t.Fatalf("ParseNoise all-zero = (%v, %v), want (nil, nil)", p, err)
	}
	if p, err := ParseNoise("e2q=-0,tdec=0.1,e2q-0-1=-0"); err != nil || math.Signbit(p.E2Q) || math.Signbit(p.EdgeE2Q[[2]int{0, 1}]) {
		t.Fatalf("ParseNoise kept a negative zero: (%+v, %v)", p, err)
	}
	for _, bad := range []string{
		"",                 // empty profile is a caller error
		"bogus=1",          // unknown key
		"e2q=0.1,e2q=0.2",  // duplicate
		"rows=4,e2q=0.002", // arch keys don't belong here
	} {
		if _, err := ParseNoise(bad); err == nil {
			t.Errorf("ParseNoise(%q) succeeded, want error", bad)
		}
	}
}

func TestNoiseProfileEdgeError(t *testing.T) {
	p := &NoiseProfile{E2Q: 0.01, EdgeE2Q: map[[2]int]float64{{1, 3}: 0.2}}
	if got := p.EdgeError(3, 1); got != 0.2 {
		t.Fatalf("override not order-insensitive: %g", got)
	}
	if got := p.EdgeError(0, 1); got != 0.01 {
		t.Fatalf("fallback to E2Q failed: %g", got)
	}
	var nilProfile *NoiseProfile
	if got := nilProfile.EdgeError(0, 1); got != 0 {
		t.Fatalf("nil profile edge error = %g, want 0", got)
	}
}

func TestNoiseProfileEqualClone(t *testing.T) {
	a := &NoiseProfile{E2Q: 0.01, TDec: 0.5, EdgeE2Q: map[[2]int]float64{{0, 1}: 0.2}}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.EdgeE2Q[[2]int{0, 1}] = 0.3
	if a.Equal(b) {
		t.Fatal("clone shares the override map with its source")
	}
	var nilP *NoiseProfile
	if !nilP.Equal(&NoiseProfile{}) || !(&NoiseProfile{}).Equal(nilP) {
		t.Fatal("nil and all-zero profiles must compare equal")
	}
	if nilP.Clone() != nil {
		t.Fatal("nil clone must stay nil")
	}
}

func TestNoiseProfileEdgesSorted(t *testing.T) {
	p := &NoiseProfile{EdgeE2Q: map[[2]int]float64{{2, 5}: 0.1, {0, 1}: 0.2, {2, 3}: 0.3}}
	edges := p.Edges()
	want := [][2]int{{0, 1}, {2, 3}, {2, 5}}
	if len(edges) != len(want) {
		t.Fatalf("Edges() = %v", edges)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("Edges() = %v, want %v", edges, want)
		}
	}
}
