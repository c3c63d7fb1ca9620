package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return m
}

// randUnitary produces a Haar-ish random unitary via QR of a Ginibre matrix.
func randUnitary(rng *rand.Rand, n int) *Matrix {
	g := randMatrix(rng, n, n)
	q, r, err := g.QR()
	if err != nil {
		panic(err)
	}
	// Fix column phases so the distribution is Haar.
	for j := 0; j < n; j++ {
		d := r.At(j, j)
		ph := d / complex(cmplx.Abs(d), 0)
		for i := 0; i < n; i++ {
			q.Set(i, j, q.At(i, j)*ph)
		}
	}
	return q
}

func TestIdentityMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := randMatrix(rng, 4, 4)
	if !Identity(4).Mul(m).EqualWithin(m, 1e-12) {
		t.Fatal("I*m != m")
	}
	if !m.Mul(Identity(4)).EqualWithin(m, 1e-12) {
		t.Fatal("m*I != m")
	}
}

func TestMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		a := randMatrix(rng, 3, 4)
		b := randMatrix(rng, 4, 5)
		c := randMatrix(rng, 5, 2)
		left := a.Mul(b).Mul(c)
		right := a.Mul(b.Mul(c))
		if !left.EqualWithin(right, 1e-10) {
			t.Fatalf("trial %d: (ab)c != a(bc), diff %g", trial, left.MaxAbsDiff(right))
		}
	}
}

func TestDaggerReversesProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMatrix(r, 4, 4)
		b := randMatrix(r, 4, 4)
		return a.Mul(b).Dagger().EqualWithin(b.Dagger().Mul(a.Dagger()), 1e-10)
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestKronMixedProduct(t *testing.T) {
	// (A⊗B)(C⊗D) = (AC)⊗(BD)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(rng, 2, 2)
		b := randMatrix(rng, 2, 2)
		c := randMatrix(rng, 2, 2)
		d := randMatrix(rng, 2, 2)
		left := a.Kron(b).Mul(c.Kron(d))
		right := a.Mul(c).Kron(b.Mul(d))
		if !left.EqualWithin(right, 1e-10) {
			t.Fatalf("trial %d: mixed-product property failed", trial)
		}
	}
}

func TestKronShapeAndValues(t *testing.T) {
	a := FromRows([][]complex128{{1, 2}, {3, 4}})
	b := FromRows([][]complex128{{0, 1}, {1, 0}})
	k := a.Kron(b)
	if k.Rows != 4 || k.Cols != 4 {
		t.Fatalf("kron shape = %dx%d", k.Rows, k.Cols)
	}
	want := FromRows([][]complex128{
		{0, 1, 0, 2},
		{1, 0, 2, 0},
		{0, 3, 0, 4},
		{3, 0, 4, 0},
	})
	if !k.EqualWithin(want, 0) {
		t.Fatalf("kron values wrong:\n%v", k)
	}
}

func TestTraceCyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randMatrix(rng, 4, 4)
	b := randMatrix(rng, 4, 4)
	t1 := a.Mul(b).Trace()
	t2 := b.Mul(a).Trace()
	if cmplx.Abs(t1-t2) > 1e-10 {
		t.Fatalf("tr(AB) != tr(BA): %v vs %v", t1, t2)
	}
}

func TestDetMultiplicative(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(rng, 4, 4)
		b := randMatrix(rng, 4, 4)
		lhs := a.Mul(b).Det()
		rhs := a.Det() * b.Det()
		if cmplx.Abs(lhs-rhs) > 1e-8*(1+cmplx.Abs(rhs)) {
			t.Fatalf("trial %d: det(AB)=%v det(A)det(B)=%v", trial, lhs, rhs)
		}
	}
}

func TestDetKnown(t *testing.T) {
	m := FromRows([][]complex128{{2, 0}, {0, 3}})
	if d := m.Det(); cmplx.Abs(d-6) > 1e-14 {
		t.Fatalf("det diag(2,3) = %v", d)
	}
	s := FromRows([][]complex128{{0, 1}, {1, 0}})
	if d := s.Det(); cmplx.Abs(d+1) > 1e-14 {
		t.Fatalf("det swap = %v, want -1", d)
	}
	sing := FromRows([][]complex128{{1, 2}, {2, 4}})
	if d := sing.Det(); cmplx.Abs(d) > 1e-12 {
		t.Fatalf("det singular = %v, want 0", d)
	}
}

func TestSolveAndInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(rng, 5, 5)
		b := make([]complex128, 5)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x, err := a.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got := a.MulVec(x)
		for i := range b {
			if cmplx.Abs(got[i]-b[i]) > 1e-8 {
				t.Fatalf("trial %d: residual %g at %d", trial, cmplx.Abs(got[i]-b[i]), i)
			}
		}
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]complex128{{1, 1}, {1, 1}})
	if _, err := a.Solve([]complex128{1, 2}); err == nil {
		t.Fatal("expected error for singular system")
	}
}

func TestQRProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		a := randMatrix(rng, 6, 4)
		q, r, err := a.QR()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !q.Mul(r).EqualWithin(a, 1e-9) {
			t.Fatalf("trial %d: QR != A", trial)
		}
		if !q.Dagger().Mul(q).EqualWithin(Identity(4), 1e-9) {
			t.Fatalf("trial %d: Q columns not orthonormal", trial)
		}
		// R upper triangular.
		for i := 1; i < 4; i++ {
			for j := 0; j < i; j++ {
				if cmplx.Abs(r.At(i, j)) > 1e-10 {
					t.Fatalf("trial %d: R not upper triangular at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestUnitaryChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	u := randUnitary(rng, 4)
	if !u.IsUnitary(1e-9) {
		t.Fatal("random unitary failed IsUnitary")
	}
	if d := cmplx.Abs(u.Det()); math.Abs(d-1) > 1e-9 {
		t.Fatalf("|det(U)| = %g, want 1", d)
	}
	m := randMatrix(rng, 4, 4)
	if m.IsUnitary(1e-6) {
		t.Fatal("random matrix passed IsUnitary")
	}
}

func TestGlobalPhase(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	u := randUnitary(rng, 4)
	phased := u.Scale(cmplx.Exp(complex(0, 1.234)))
	if !u.EqualUpToPhase(phased, 1e-10) {
		t.Fatal("EqualUpToPhase failed for phased copy")
	}
	v := randUnitary(rng, 4)
	if u.EqualUpToPhase(v, 1e-6) {
		t.Fatal("EqualUpToPhase matched distinct unitaries")
	}
}

func TestHSInnerAndNorm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randMatrix(rng, 4, 4)
	n1 := a.FrobeniusNorm()
	n2 := math.Sqrt(real(a.HSInner(a)))
	if math.Abs(n1-n2) > 1e-10 {
		t.Fatalf("Frobenius %g != sqrt(HS) %g", n1, n2)
	}
}

func TestShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape mismatch")
		}
	}()
	New(2, 2).Mul(New(3, 3))
}
