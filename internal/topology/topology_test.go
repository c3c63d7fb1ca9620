package topology

import (
	"math"
	"testing"
)

func TestSquareLattice16Table1(t *testing.T) {
	s := SquareLattice16().Stats()
	if s.Qubits != 16 || s.Diameter != 6 {
		t.Errorf("4x4 lattice: qubits=%d dia=%d, want 16/6", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgDist-2.5) > 1e-9 {
		t.Errorf("4x4 AvgD = %g, want 2.5 (paper Table 1)", s.AvgDist)
	}
	if math.Abs(s.AvgConn-3.0) > 1e-9 {
		t.Errorf("4x4 AvgC = %g, want 3.0", s.AvgConn)
	}
}

func TestSquareLattice84Table2(t *testing.T) {
	s := SquareLattice84().Stats()
	if s.Qubits != 84 || s.Diameter != 17 {
		t.Errorf("7x12 lattice: qubits=%d dia=%d, want 84/17", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgDist-6.26) > 0.005 {
		t.Errorf("7x12 AvgD = %g, want 6.26", s.AvgDist)
	}
	if math.Abs(s.AvgConn-3.55) > 0.005 {
		t.Errorf("7x12 AvgC = %g, want 3.55", s.AvgConn)
	}
}

func TestLatticeAltDiag84Table2(t *testing.T) {
	s := LatticeAltDiag84().Stats()
	if s.Qubits != 84 {
		t.Fatalf("altdiag qubits = %d", s.Qubits)
	}
	if math.Abs(s.AvgConn-5.12) > 0.01 {
		t.Errorf("altdiag AvgC = %g, want 5.12", s.AvgConn)
	}
	if s.Diameter != 11 {
		t.Errorf("altdiag diameter = %d, want 11", s.Diameter)
	}
	if math.Abs(s.AvgDist-4.62) > 0.05 {
		t.Errorf("altdiag AvgD = %g, want ≈4.62", s.AvgDist)
	}
}

func TestHypercube16Table1(t *testing.T) {
	s := Hypercube16().Stats()
	if s.Diameter != 4 || s.Qubits != 16 {
		t.Errorf("Q4: qubits=%d dia=%d", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgDist-2.0) > 1e-9 {
		t.Errorf("Q4 AvgD = %g, want 2.0", s.AvgDist)
	}
	if math.Abs(s.AvgConn-4.0) > 1e-9 {
		t.Errorf("Q4 AvgC = %g, want 4.0", s.AvgConn)
	}
}

func TestHypercube84Table2(t *testing.T) {
	s := Hypercube84().Stats()
	if s.Qubits != 84 {
		t.Fatalf("trimmed cube qubits = %d", s.Qubits)
	}
	if math.Abs(s.AvgConn-6.0) > 1e-9 {
		t.Errorf("trimmed cube AvgC = %g, want exactly 6.0 (252 edges)", s.AvgConn)
	}
	if s.Diameter != 7 {
		t.Errorf("trimmed cube diameter = %d, want 7", s.Diameter)
	}
	if math.Abs(s.AvgDist-3.32) > 0.1 {
		t.Errorf("trimmed cube AvgD = %g, want ≈3.32", s.AvgDist)
	}
}

func TestHypercubeDistancesAreHamming(t *testing.T) {
	g := Hypercube(5)
	for a := 0; a < 32; a += 3 {
		for b := 0; b < 32; b += 5 {
			if g.Dist(a, b) != HammingDistance(a, b) {
				t.Fatalf("dist(%d,%d) = %d, Hamming %d", a, b, g.Dist(a, b), HammingDistance(a, b))
			}
		}
	}
}

// TestFlatDistancesMatchDistances checks the cached float matrix entry by
// entry against the hop matrix (unreachable pairs included), that repeat
// calls share one copy, and that AddEdge drops it with the hop matrix.
func TestFlatDistancesMatchDistances(t *testing.T) {
	g := NewGraph("path+isolated", 5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	check := func() {
		t.Helper()
		flat, d := g.FlatDistances(), g.Distances()
		for a := 0; a < g.N(); a++ {
			for b := 0; b < g.N(); b++ {
				if flat[a*g.N()+b] != float64(d[a][b]) {
					t.Fatalf("flat[%d,%d] = %v, hops %d", a, b, flat[a*g.N()+b], d[a][b])
				}
			}
		}
		if &g.FlatDistances()[0] != &flat[0] {
			t.Fatal("FlatDistances recomputed on a repeat call")
		}
	}
	check()
	g.AddEdge(2, 3)
	check()
	if got := g.FlatDistances()[0*5+3]; got != 3 {
		t.Fatalf("after AddEdge(2,3): flat[0,3] = %v, want 3", got)
	}
}

func TestTree20Table1(t *testing.T) {
	s := Tree20().Stats()
	if s.Qubits != 20 || s.Diameter != 3 {
		t.Errorf("Tree20: qubits=%d dia=%d, want 20/3", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgConn-4.6) > 1e-9 {
		t.Errorf("Tree20 AvgC = %g, want 4.6 (46 couplings)", s.AvgConn)
	}
	if math.Abs(s.AvgDist-2.15) > 0.05 {
		t.Errorf("Tree20 AvgD = %g, want ≈2.15", s.AvgDist)
	}
}

func TestTreeRR20Table1(t *testing.T) {
	s := TreeRR20().Stats()
	if s.Qubits != 20 || s.Diameter != 3 {
		t.Errorf("TreeRR20: qubits=%d dia=%d, want 20/3", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgConn-4.6) > 1e-9 {
		t.Errorf("TreeRR20 AvgC = %g, want 4.6", s.AvgConn)
	}
	if math.Abs(s.AvgDist-2.03) > 0.05 {
		t.Errorf("TreeRR20 AvgD = %g, want ≈2.03", s.AvgDist)
	}
	// Round robin should strictly improve average distance over Tree.
	if s.AvgDist >= Tree20().AvgDistance() {
		t.Error("Tree-RR should have lower average distance than Tree")
	}
}

func TestTree84Table2(t *testing.T) {
	s := Tree84().Stats()
	if s.Qubits != 84 || s.Diameter != 5 {
		t.Errorf("Tree84: qubits=%d dia=%d, want 84/5", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgDist-3.91) > 0.15 {
		t.Errorf("Tree84 AvgD = %g, want ≈3.91", s.AvgDist)
	}
}

func TestTreeRR84Table2(t *testing.T) {
	s := TreeRR84().Stats()
	if s.Qubits != 84 || s.Diameter != 5 {
		t.Errorf("TreeRR84: qubits=%d dia=%d, want 84/5", s.Qubits, s.Diameter)
	}
	if s.AvgDist >= Tree84().AvgDistance() {
		t.Error("Tree-RR 84 should have lower average distance than Tree 84")
	}
}

func TestCorral11Table1(t *testing.T) {
	s := Corral11().Stats()
	if s.Qubits != 16 || s.Diameter != 4 {
		t.Errorf("Corral11: qubits=%d dia=%d, want 16/4", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgConn-5.0) > 1e-9 {
		t.Errorf("Corral11 AvgC = %g, want 5.0", s.AvgConn)
	}
	if math.Abs(s.AvgDist-2.0625) > 1e-9 {
		t.Errorf("Corral11 AvgD = %g, want 2.0625 (paper: 2.06)", s.AvgDist)
	}
}

func TestCorral12Table1(t *testing.T) {
	s := Corral12().Stats()
	if s.Qubits != 16 || s.Diameter != 2 {
		t.Errorf("Corral12: qubits=%d dia=%d, want 16/2", s.Qubits, s.Diameter)
	}
	if math.Abs(s.AvgConn-6.0) > 1e-9 {
		t.Errorf("Corral12 AvgC = %g, want 6.0", s.AvgConn)
	}
	if math.Abs(s.AvgDist-1.5) > 1e-9 {
		t.Errorf("Corral12 AvgD = %g, want 1.5", s.AvgDist)
	}
}

func TestCorralLiteralStride2(t *testing.T) {
	// The literal "second-nearest neighbor" Corral(1,2) has diameter 3,
	// which is why Corral12() uses stride 3 (documented in DESIGN.md).
	g := CorralRing(8, []int{1, 2})
	if d := g.Diameter(); d != 3 {
		t.Errorf("stride-{1,2} corral diameter = %d, expected 3", d)
	}
}

func TestHeavyHex20Metrics(t *testing.T) {
	s := HeavyHex20().Stats()
	if s.Qubits != 20 {
		t.Fatalf("HeavyHex20 qubits = %d", s.Qubits)
	}
	if math.Abs(s.AvgConn-2.1) > 1e-9 {
		t.Errorf("HeavyHex20 AvgC = %g, want 2.1 (21 couplings)", s.AvgConn)
	}
	if !HeavyHex20().IsConnected() {
		t.Error("HeavyHex20 disconnected")
	}
	// Sparsest topology of the 16-20q set: diameter must exceed all others.
	for _, other := range []*Graph{Tree20(), TreeRR20(), Corral11(), Corral12(), Hypercube16(), SquareLattice16()} {
		if s.Diameter <= other.Diameter() {
			t.Errorf("HeavyHex20 diameter %d not worse than %s (%d)", s.Diameter, other.Name, other.Diameter())
		}
	}
}

func TestHeavyHex84Metrics(t *testing.T) {
	g := HeavyHex84()
	s := g.Stats()
	if s.Qubits != 84 {
		t.Fatalf("HeavyHex84 qubits = %d", s.Qubits)
	}
	if !g.IsConnected() {
		t.Fatal("HeavyHex84 disconnected")
	}
	if s.AvgConn < 2.1 || s.AvgConn > 2.35 {
		t.Errorf("HeavyHex84 AvgC = %g, want ≈2.26", s.AvgConn)
	}
	if s.Diameter < 17 || s.Diameter > 25 {
		t.Errorf("HeavyHex84 diameter = %d, want ≈21", s.Diameter)
	}
	// Max degree 3 (heavy-hex property).
	for v := 0; v < g.N(); v++ {
		if g.Degree(v) > 3 {
			t.Fatalf("HeavyHex84 vertex %d has degree %d > 3", v, g.Degree(v))
		}
	}
}

func TestHexLattice20Metrics(t *testing.T) {
	s := HexLattice20().Stats()
	if s.Qubits != 20 {
		t.Fatalf("HexLattice20 qubits = %d", s.Qubits)
	}
	if s.AvgConn < 2.3 || s.AvgConn > 2.55 {
		t.Errorf("HexLattice20 AvgC = %g, want ≈2.45", s.AvgConn)
	}
	if s.Diameter < 6 || s.Diameter > 8 {
		t.Errorf("HexLattice20 diameter = %d, want ≈7", s.Diameter)
	}
}

func TestHexLattice84Metrics(t *testing.T) {
	s := HexLattice84().Stats()
	if s.Qubits != 84 {
		t.Fatalf("HexLattice84 qubits = %d", s.Qubits)
	}
	if s.AvgConn < 2.6 || s.AvgConn > 2.8 {
		t.Errorf("HexLattice84 AvgC = %g, want ≈2.71", s.AvgConn)
	}
	if s.Diameter < 16 || s.Diameter > 19 {
		t.Errorf("HexLattice84 diameter = %d, want ≈17", s.Diameter)
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph("test", 4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 1) // duplicate ignored
	if g.NumEdges() != 2 {
		t.Errorf("duplicate edge not ignored: %d edges", g.NumEdges())
	}
	if !g.HasEdge(1, 0) {
		t.Error("undirected edge lookup failed")
	}
	if g.IsConnected() {
		t.Error("graph with isolated vertex reported connected")
	}
	if g.Diameter() != -1 || g.AvgDistance() != -1 {
		t.Error("disconnected metrics should be -1")
	}
	g.AddEdge(2, 3)
	if !g.IsConnected() || g.Diameter() != 3 {
		t.Errorf("path graph diameter = %d, want 3", g.Diameter())
	}
}

func TestGraphPanics(t *testing.T) {
	g := NewGraph("p", 2)
	for name, f := range map[string]func(){
		"self edge":    func() { g.AddEdge(0, 0) },
		"out of range": func() { g.AddEdge(0, 7) },
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

func TestAllTopologiesConnected(t *testing.T) {
	all := []*Graph{
		SquareLattice16(), SquareLattice84(), HexLattice20(), HexLattice84(),
		HeavyHex20(), HeavyHex84(), LatticeAltDiag84(), Hypercube16(),
		Hypercube84(), Tree20(), TreeRR20(), Tree84(), TreeRR84(),
		Corral11(), Corral12(), Tree(4, 4),
	}
	for _, g := range all {
		if !g.IsConnected() {
			t.Errorf("%s is disconnected", g)
		}
	}
}
