// Package optimize provides the gradient-based and derivative-free
// optimizers used by the numerical gate-decomposition engine (package
// decomp): Adam with user-supplied gradients and Nelder–Mead simplex search.
// Both are deterministic given their inputs.
package optimize

import (
	"math"
)

// AdamConfig tunes the Adam optimizer.
type AdamConfig struct {
	LearningRate float64 // step size (default 0.05)
	Beta1, Beta2 float64 // moment decays (defaults 0.9, 0.999)
	Epsilon      float64 // numerical floor (default 1e-8)
	MaxIter      int     // iteration budget (default 300)
	Tol          float64 // stop when |f - fPrev| < Tol (default 1e-12)
}

func (c AdamConfig) withDefaults() AdamConfig {
	if c.LearningRate == 0 {
		c.LearningRate = 0.05
	}
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Epsilon == 0 {
		c.Epsilon = 1e-8
	}
	if c.MaxIter == 0 {
		c.MaxIter = 300
	}
	if c.Tol == 0 {
		c.Tol = 1e-12
	}
	return c
}

// Adam minimizes f starting from x0, using the provided objective+gradient
// function. Returns the best point and value seen.
func Adam(x0 []float64, fg func(x []float64) (float64, []float64), cfg AdamConfig) ([]float64, float64) {
	cfg = cfg.withDefaults()
	n := len(x0)
	x := append([]float64(nil), x0...)
	m := make([]float64, n)
	v := make([]float64, n)
	bestX := append([]float64(nil), x...)
	bestF := math.Inf(1)
	prevF := math.Inf(1)
	for t := 1; t <= cfg.MaxIter; t++ {
		f, g := fg(x)
		if f < bestF {
			bestF = f
			copy(bestX, x)
		}
		if math.Abs(prevF-f) < cfg.Tol {
			break
		}
		prevF = f
		b1t := 1 - math.Pow(cfg.Beta1, float64(t))
		b2t := 1 - math.Pow(cfg.Beta2, float64(t))
		for i := 0; i < n; i++ {
			m[i] = cfg.Beta1*m[i] + (1-cfg.Beta1)*g[i]
			v[i] = cfg.Beta2*v[i] + (1-cfg.Beta2)*g[i]*g[i]
			mhat := m[i] / b1t
			vhat := v[i] / b2t
			x[i] -= cfg.LearningRate * mhat / (math.Sqrt(vhat) + cfg.Epsilon)
		}
	}
	// Final evaluation (the loop may end on a step we never scored).
	if f, _ := fg(x); f < bestF {
		bestF = f
		copy(bestX, x)
	}
	return bestX, bestF
}

// FiniteDiffGrad wraps a plain objective into an objective+gradient via
// central differences with step h.
func FiniteDiffGrad(f func([]float64) float64, h float64) func([]float64) (float64, []float64) {
	if h == 0 {
		h = 1e-6
	}
	return func(x []float64) (float64, []float64) {
		fx := f(x)
		g := make([]float64, len(x))
		xp := append([]float64(nil), x...)
		for i := range x {
			xp[i] = x[i] + h
			fp := f(xp)
			xp[i] = x[i] - h
			fm := f(xp)
			xp[i] = x[i]
			g[i] = (fp - fm) / (2 * h)
		}
		return fx, g
	}
}
