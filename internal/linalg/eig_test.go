package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sort"
	"testing"
)

func randRealSymmetric(rng *rand.Rand, n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := complex(rng.NormFloat64(), 0)
			m.Set(i, j, v)
			m.Set(j, i, v)
		}
	}
	return m
}

func TestEigSymmetricRealReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(5)
		m := randRealSymmetric(rng, n)
		vals, v, err := EigSymmetricReal(m)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !sort.Float64sAreSorted(vals) {
			t.Fatalf("trial %d: eigenvalues not ascending: %v", trial, vals)
		}
		d := New(n, n)
		for i, lam := range vals {
			d.Set(i, i, complex(lam, 0))
		}
		recon := v.Mul(d).Mul(v.Transpose())
		if !recon.EqualWithin(m, 1e-9) {
			t.Fatalf("trial %d: V D Vᵀ != M (diff %g)", trial, recon.MaxAbsDiff(m))
		}
		if !v.Mul(v.Transpose()).EqualWithin(Identity(n), 1e-9) {
			t.Fatalf("trial %d: V not orthogonal", trial)
		}
	}
}

func TestEigSymmetricRealKnown(t *testing.T) {
	// Pauli X has eigenvalues ±1.
	x := FromRows([][]complex128{{0, 1}, {1, 0}})
	vals, _, err := EigSymmetricReal(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]+1) > 1e-12 || math.Abs(vals[1]-1) > 1e-12 {
		t.Fatalf("Pauli X eigenvalues = %v, want [-1, 1]", vals)
	}
}

func TestEigSymmetricRejectsAsymmetric(t *testing.T) {
	m := FromRows([][]complex128{{0, 1}, {2, 0}})
	if _, _, err := EigSymmetricReal(m); err == nil {
		t.Fatal("expected error for asymmetric input")
	}
	c := FromRows([][]complex128{{0, 1i}, {-1i, 0}})
	if _, _, err := EigSymmetricReal(c); err == nil {
		t.Fatal("expected error for complex input")
	}
}

func TestSimultaneousDiagonalizeCommutingPair(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		n := 4
		// Build commuting pair sharing an eigenbasis with degeneracies:
		// A has repeated eigenvalues so B distinguishes within blocks.
		q := randRealSymmetric(rng, n)
		_, basis, err := EigSymmetricReal(q)
		if err != nil {
			t.Fatal(err)
		}
		da := Diag(1, 1, 2, 2) // deliberately degenerate
		db := Diag(complex(rng.NormFloat64(), 0), complex(rng.NormFloat64(), 0),
			complex(rng.NormFloat64(), 0), complex(rng.NormFloat64(), 0))
		a := basis.Mul(da).Mul(basis.Transpose())
		b := basis.Mul(db).Mul(basis.Transpose())
		p, err := SimultaneousDiagonalize(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, m := range []*Matrix{p.Transpose().Mul(a).Mul(p), p.Transpose().Mul(b).Mul(p)} {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if i != j && cmplx.Abs(m.At(i, j)) > 1e-7 {
						t.Fatalf("trial %d: residual off-diagonal %g", trial, cmplx.Abs(m.At(i, j)))
					}
				}
			}
		}
	}
}

func TestSimultaneousDiagonalizeRejectsNonCommuting(t *testing.T) {
	a := FromRows([][]complex128{{1, 0}, {0, -1}}) // Z
	b := FromRows([][]complex128{{0, 1}, {1, 0}})  // X — does not commute with Z
	if _, err := SimultaneousDiagonalize(a, b); err == nil {
		t.Fatal("expected failure for non-commuting pair")
	}
}

func TestPolyRootsKnown(t *testing.T) {
	// x² - 1 → ±1
	roots, err := PolyRoots([]complex128{-1, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(roots, func(i, j int) bool { return real(roots[i]) < real(roots[j]) })
	if cmplx.Abs(roots[0]+1) > 1e-9 || cmplx.Abs(roots[1]-1) > 1e-9 {
		t.Fatalf("roots of x²-1 = %v", roots)
	}
	// (x-1)(x-2)(x-3) = x³ -6x² +11x -6
	roots, err = PolyRoots([]complex128{-6, 11, -6, 1})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(roots, func(i, j int) bool { return real(roots[i]) < real(roots[j]) })
	for i, want := range []float64{1, 2, 3} {
		if cmplx.Abs(roots[i]-complex(want, 0)) > 1e-8 {
			t.Fatalf("cubic roots = %v", roots)
		}
	}
}

func TestPolyRootsRandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		deg := 2 + rng.Intn(5)
		c := make([]complex128, deg+1)
		for i := range c {
			c[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		if cmplx.Abs(c[deg]) < 0.1 {
			c[deg] = 1
		}
		roots, err := PolyRoots(c)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, r := range roots {
			v := c[deg]
			for i := deg - 1; i >= 0; i-- {
				v = v*r + c[i]
			}
			if cmplx.Abs(v) > 1e-6 {
				t.Fatalf("trial %d: residual %g at root %v", trial, cmplx.Abs(v), r)
			}
		}
	}
}

func TestEigenvalues4Unitary(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	u := randUnitary(rng, 4)
	vals, err := Eigenvalues4(u)
	if err != nil {
		t.Fatal(err)
	}
	var prod complex128 = 1
	for _, v := range vals {
		if math.Abs(cmplx.Abs(v)-1) > 1e-7 {
			t.Fatalf("unitary eigenvalue off unit circle: %v", v)
		}
		prod *= v
	}
	if cmplx.Abs(prod-u.Det()) > 1e-6 {
		t.Fatalf("product of eigenvalues %v != det %v", prod, u.Det())
	}
}
