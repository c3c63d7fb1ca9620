package circuit

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomCircuit(rng *rand.Rand) *Circuit {
	n := 2 + rng.Intn(8)
	c := New(n)
	ops := rng.Intn(60)
	for i := 0; i < ops; i++ {
		if rng.Intn(3) == 0 || n < 2 {
			c.H(rng.Intn(n))
		} else {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		}
	}
	return c
}

// TestPropertyLayersAreQubitDisjoint: ops sharing a layer never share a
// qubit, and layers preserve op order per qubit.
func TestPropertyLayersAreQubitDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		layers := c.Layers()
		seenTotal := 0
		lastLayerOf := make(map[int]int) // qubit -> last layer index
		for li, layer := range layers {
			used := map[int]bool{}
			for _, idx := range layer {
				seenTotal++
				for _, q := range c.Ops[idx].Qubits {
					if used[q] {
						return false
					}
					used[q] = true
					if prev, ok := lastLayerOf[q]; ok && prev >= li {
						return false
					}
					lastLayerOf[q] = li
				}
			}
		}
		return seenTotal == len(c.Ops)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyDepthBounds: 2Q depth ≤ 2Q count and layer count ≥ depth.
func TestPropertyDepthBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng)
		d := int(c.CriticalPath(twoQ))
		if d > c.CountTwoQubit() {
			return false
		}
		return len(c.Layers()) >= d
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCriticalPathAdditive: concatenating a circuit with itself
// doubles the critical path (every chain extends through shared qubits
// when all qubits are touched).
func TestPropertyCriticalPathAdditive(t *testing.T) {
	c := New(3)
	c.CX(0, 1)
	c.CX(1, 2)
	base := c.CriticalPath(twoQ)
	d := c.Copy()
	d.AppendCircuit(c)
	if got := d.CriticalPath(twoQ); got != 2*base {
		t.Fatalf("doubled circuit depth %v, want %v", got, 2*base)
	}
}
