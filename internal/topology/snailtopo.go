package topology

import "fmt"

// The SNAIL-enabled modular topologies of paper §4.3. A "module" is a SNAIL
// coupler plus the qubits attached to it; a SNAIL makes every pair of its
// attached elements a usable coupling, so a module with k attached qubits
// contributes a K_k clique to the coupling graph.

// addClique couples every pair among the vertices.
func addClique(g *Graph, vs []int) {
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			g.AddEdge(vs[i], vs[j])
		}
	}
}

// Tree builds the modular radix-ary router tree (paper Fig. 7a/8,
// generalized beyond radix 4): a central router SNAIL couples the `radix`
// level-1 router qubits all-to-all, and every level-l qubit (l < levels)
// joins a module SNAIL coupling {itself, its radix children} all-to-all (a
// K_{radix+1}). Level l occupies radix + radix² + ... + radix^(l-1) onward,
// children of vertex i within a level sit contiguously — so Tree(4,2)
// reproduces Tree20's exact edge set and Tree(4,3) reproduces Tree84's.
func Tree(radix, levels int) *Graph {
	if radix < 2 || radix > 8 {
		panic(fmt.Sprintf("topology: tree radix %d out of range [2,8]", radix))
	}
	if levels < 2 || levels > 6 {
		panic(fmt.Sprintf("topology: tree levels %d out of range [2,6]", levels))
	}
	// Count qubits: radix + radix^2 + ... + radix^levels, and record where
	// each level starts.
	start := make([]int, levels+1)
	total, pow := 0, 1
	for l := 1; l <= levels; l++ {
		pow *= radix
		start[l] = total
		total += pow
	}
	g := NewGraph("Tree", total)
	w := make([]int, radix)
	for j := range w {
		w[j] = j
	}
	addClique(g, w)
	pow = radix
	for l := 1; l < levels; l++ {
		for i := 0; i < pow; i++ {
			parent := start[l] + i
			module := []int{parent}
			for j := 0; j < radix; j++ {
				module = append(module, start[l+1]+radix*i+j)
			}
			addClique(g, module)
		}
		pow *= radix
	}
	return g
}

// Tree20 is the two-level modular 4-ary tree (paper Fig. 7a): a central
// router SNAIL couples four router qubits W0..W3 (a K4), and each Wk joins a
// module SNAIL coupling {Wk, 4 module qubits} all-to-all (a K5).
// Qubit layout: W qubits are 0..3; module k's leaves are 4+4k .. 7+4k.
func Tree20() *Graph { return Tree(4, 2) }

// Tree84 is the three-router-level 4-ary tree of Table 2 (paper Fig. 8):
// central K4 over four level-1 router qubits; each level-1 qubit in a K5
// router module with four level-2 qubits; each level-2 qubit in a K5 leaf
// module with four leaf qubits. 4 + 16 + 64 = 84 qubits.
//
// Layout: level-1 routers 0..3; level-2 qubits 4..19 (level-1 router k owns
// 4+4k..7+4k); leaves 20..83 (level-2 qubit m owns 20+4m..23+4m with
// m = vertex-20 ... i.e. level-2 vertex v owns 20+4*(v-4)..).
func Tree84() *Graph { return Tree(4, 3) }

// TreeRR builds the Round-Robin variant of the radix-ary tree (paper
// Fig. 7b, §4.3): module qubits still form per-module cliques, but qubit j
// of each module couples to router qubit j of the level above — spreading
// inter-module traffic over all routers instead of funneling through the
// parent. The paper instantiates two and three router levels; those are the
// supported depths. TreeRR(4,2) reproduces TreeRR20's exact edge set and
// TreeRR(4,3) reproduces TreeRR84's.
func TreeRR(radix, levels int) *Graph {
	if radix < 2 || radix > 8 {
		panic(fmt.Sprintf("topology: tree-rr radix %d out of range [2,8]", radix))
	}
	if levels < 2 || levels > 3 {
		panic(fmt.Sprintf("topology: tree-rr levels %d out of range [2,3]", levels))
	}
	total := 0
	pow := 1
	for l := 1; l <= levels; l++ {
		pow *= radix
		total += pow
	}
	g := NewGraph("Tree-RR", total)
	w := make([]int, radix)
	for j := range w {
		w[j] = j
	}
	addClique(g, w)
	if levels == 2 {
		for k := 0; k < radix; k++ {
			var module []int
			for j := 0; j < radix; j++ {
				q := radix + radix*k + j
				module = append(module, q)
				g.AddEdge(q, w[j]) // round-robin link to router qubit j
			}
			addClique(g, module)
		}
		return g
	}
	leafBase := radix + radix*radix
	for grp := 0; grp < radix; grp++ {
		var routers []int
		for j := 0; j < radix; j++ {
			r := radix + radix*grp + j
			routers = append(routers, r)
			g.AddEdge(r, w[j])
		}
		addClique(g, routers)
		for i := 0; i < radix; i++ {
			var module []int
			for j := 0; j < radix; j++ {
				q := leafBase + radix*radix*grp + radix*i + j
				module = append(module, q)
				g.AddEdge(q, routers[j])
			}
			addClique(g, module)
		}
	}
	return g
}

// TreeRR20 is the Round-Robin tree (paper Fig. 7b): module qubits couple
// all-to-all within their module (K4 via the module SNAIL), and qubit j of
// every module couples to router qubit Wj (via Wj's SNAIL), eliminating the
// per-module router bottleneck. W qubits are 0..3; module k's qubits are
// 4+4k .. 7+4k.
func TreeRR20() *Graph { return TreeRR(4, 2) }

// TreeRR84 is the 84-qubit Round-Robin tree of Table 2: 16 leaf modules
// (K4), four level-2 router modules (K4), and the central level-1 K4. Each
// leaf-module qubit j couples to its group's level-2 router qubit j, and
// level-2 router qubit j of every group couples to level-1 router qubit j
// (paper §4.3: "each module couples to a different second-level router
// qubit, and each second-level router qubit is coupled to a different
// first-level router qubit").
//
// Layout: level-1 routers 0..3; level-2 routers 4..19 (group g at
// 4+4g..7+4g); leaves 20..83 (leaf module m = (g,i) at 20+16g+4i..).
func TreeRR84() *Graph { return TreeRR(4, 3) }

// CorralRing builds a Corral (paper §4.3, Fig. 9): a ring of `posts` SNAILs
// with one qubit per fence level spanning from post i to post i+stride.
// Qubit (level l, post i) is vertex l*posts+i; the SNAIL at each post
// couples all qubits touching it pairwise.
func CorralRing(posts int, strides []int) *Graph {
	if posts < 3 {
		panic("topology: corral needs at least 3 posts")
	}
	for _, s := range strides {
		if s < 1 || s >= posts {
			panic(fmt.Sprintf("topology: corral stride %d out of range", s))
		}
	}
	n := posts * len(strides)
	g := NewGraph("Corral", n)
	// Qubits attached to each post.
	attached := make([][]int, posts)
	for l, s := range strides {
		for i := 0; i < posts; i++ {
			q := l*posts + i
			a := i
			b := (i + s) % posts
			attached[a] = append(attached[a], q)
			attached[b] = append(attached[b], q)
		}
	}
	for p := 0; p < posts; p++ {
		addClique(g, attached[p])
	}
	return g
}

// Corral11 is the 16-qubit Corral with both fences at stride 1 (paper
// Fig. 9a/9b): eight posts, two levels, nearest-neighbor spans. Each post's
// SNAIL couples 4 qubits all-to-all, matching Table 1 (Dia 4, AvgD 2.06,
// AvgC 5).
func Corral11() *Graph {
	g := CorralRing(8, []int{1, 1})
	g.Name = "Corral(1,1)"
	return g
}

// Corral12 is the 16-qubit long-stride Corral (paper Fig. 9c/9d): the
// second fence skips posts to cut the ring's diameter. The paper's Table 1
// row (Dia 2, AvgD 1.5, AvgC 6) is realized by the stride set {1,3}; the
// literal "second-nearest neighbor" stride {1,2} yields diameter 3 (see
// DESIGN.md; both variants are available through CorralRing).
func Corral12() *Graph {
	g := CorralRing(8, []int{1, 3})
	g.Name = "Corral(1,2)"
	return g
}
