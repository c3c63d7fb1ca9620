package optimize

import (
	"math"
	"testing"
)

func sphere(x []float64) float64 {
	s := 0.0
	for _, v := range x {
		s += (v - 1) * (v - 1)
	}
	return s
}

func rosenbrock(x []float64) float64 {
	s := 0.0
	for i := 0; i+1 < len(x); i++ {
		a := x[i+1] - x[i]*x[i]
		b := 1 - x[i]
		s += 100*a*a + b*b
	}
	return s
}

func TestAdamSphere(t *testing.T) {
	fg := FiniteDiffGrad(sphere, 1e-6)
	x, f := Adam([]float64{5, -3, 0.5}, fg, AdamConfig{MaxIter: 2000, LearningRate: 0.1})
	if f > 1e-6 {
		t.Fatalf("Adam on sphere: f=%g at %v", f, x)
	}
	for _, v := range x {
		if math.Abs(v-1) > 1e-3 {
			t.Fatalf("Adam did not reach minimum: %v", x)
		}
	}
}

func TestAdamAnalyticGradient(t *testing.T) {
	fg := func(x []float64) (float64, []float64) {
		f := sphere(x)
		g := make([]float64, len(x))
		for i, v := range x {
			g[i] = 2 * (v - 1)
		}
		return f, g
	}
	_, f := Adam([]float64{4, 4}, fg, AdamConfig{MaxIter: 1500, LearningRate: 0.1})
	if f > 1e-8 {
		t.Fatalf("Adam with analytic gradient: f=%g", f)
	}
}

func TestFiniteDiffGradAccuracy(t *testing.T) {
	fg := FiniteDiffGrad(sphere, 1e-6)
	_, g := fg([]float64{2, 0})
	if math.Abs(g[0]-2) > 1e-4 || math.Abs(g[1]+2) > 1e-4 {
		t.Fatalf("finite-diff gradient %v, want [2,-2]", g)
	}
}

func TestAdamDeterministic(t *testing.T) {
	fg := FiniteDiffGrad(rosenbrock, 1e-6)
	x1, f1 := Adam([]float64{0, 0}, fg, AdamConfig{MaxIter: 500})
	x2, f2 := Adam([]float64{0, 0}, fg, AdamConfig{MaxIter: 500})
	if f1 != f2 || x1[0] != x2[0] {
		t.Fatal("Adam not deterministic")
	}
}
