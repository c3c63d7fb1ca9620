// Layer batching: a second scheduling pass over the fused program that
// groups independent entries — gates on disjoint qubits, plus diagonal
// gates that commute with everything diagonal — into kLayer steps, and a
// cache-blocked pass that applies a whole layer per trip over the
// amplitude array.
//
// Why: the fusion pass (fusion.go) coalesces *sequential* gates, but a
// circuit layer of k independent gates still costs k full passes over the
// 2^n amplitudes. Batching the layer turns the k passes of its tile-local
// members into one, so throughput is bounded by bandwidth once instead of
// k times.
//
// Grouping rule (buildLayers): scanning entries in program order, an entry
// joins the earliest open group it does not conflict with; it conflicts
// when it shares a qubit with a non-diagonal member, or is itself
// non-diagonal and shares a qubit with any member. Two diagonal members
// may share qubits — diagonals commute exactly. An entry the batcher
// cannot convert (invalid qubits, unknown arity, unresolvable unitary) is
// a barrier: groups never extend across it, and it executes unchanged. A
// group that ends up with a single member is a step of its own: one
// whole-array sweep of its kernel. Because a member placed into an earlier
// group than a preceding entry provably commutes with (or is disjoint
// from) every member of all later groups it skipped, executing groups in
// order is exact.
//
// Execution (applyLayer) blocks the amplitude array into tiles of
// 2^layerTileExp amplitudes (128 KiB — comfortably L2-resident):
//
//   - a non-diagonal member whose stride crosses tiles (a mask ≥ the tile
//     size) gets its own whole-array sweep first — the pass the unlayered
//     schedule would have paid;
//   - every other member runs tile by tile: each tile is loaded once and
//     each member's kernel runs over it while it is cache-hot;
//   - diagonal members ride along at any stride: a diagonal factor whose
//     mask spans tiles is constant over a tile, so it degenerates to one
//     scalar multiply selected from the tile's global base index.
//
// The same kernels (kernels.go) run on a tile and on the whole array; only
// the region they are handed differs.
package sim

// layerize regroups the pass-1 schedule into kLayer steps and remaps the
// source-op→step table accordingly.
func (p *Program) layerize() {
	ops, stepOf := buildLayers(p.ops, p.n)
	p.ops = ops
	for i, e := range p.srcStep {
		p.srcStep[i] = stepOf[e]
	}
}

// buildLayers converts every source-op entry with opMember, greedily
// places each entry into the earliest open group it does not conflict with
// (see the package comment for the conflict rule), and emits groups in
// order: barriers and single-member groups become steps of their own,
// larger groups kLayer steps. It returns the new schedule and the mapping
// from old entry index to new step index.
func buildLayers(ops []member, n int) ([]member, []int) {
	type group struct {
		barrier  bool
		mixMask  uint64 // qubits of non-diagonal members
		diagMask uint64 // qubits of diagonal members
		members  []member
	}
	groups := make([]*group, 0, len(ops))
	groupOf := make([]int, len(ops))
	floor := 0 // groups[floor:] are open; a barrier closes everything before it
	for oi := range ops {
		m := ops[oi]
		if m.kind == kOp {
			if c, err := opMember(m.op, n); err == nil {
				c.idx = m.idx
				m = c
			}
		}
		if m.kind == kOp {
			groupOf[oi] = len(groups)
			groups = append(groups, &group{barrier: true, members: []member{m}})
			floor = len(groups)
			continue
		}
		bits := uint64(1) << uint(m.qa)
		if m.twoQ() {
			bits |= uint64(1) << uint(m.qb)
		}
		diag := m.diagonal()
		place := floor
		for gi := len(groups) - 1; gi >= floor; gi-- {
			conflict := bits & groups[gi].mixMask
			if !diag {
				conflict |= bits & groups[gi].diagMask
			}
			if conflict != 0 {
				place = gi + 1
				break
			}
		}
		if place == len(groups) {
			groups = append(groups, &group{})
		}
		g := groups[place]
		if diag {
			g.diagMask |= bits
		} else {
			g.mixMask |= bits
		}
		g.members = append(g.members, m)
		groupOf[oi] = place
	}

	out := make([]member, 0, len(groups))
	for _, g := range groups {
		if len(g.members) == 1 {
			out = append(out, g.members[0])
		} else {
			out = append(out, member{kind: kLayer, idx: g.members[0].idx, members: g.members})
		}
	}
	return out, groupOf
}

// layerTileExp sets the cache-blocking tile: 2^layerTileExp amplitudes
// (128 KiB), the unit every tile-local member's kernel runs over while it
// is resident. The exponent was measured, not derived: on the bench host,
// larger tiles beat L1-sized ones because the matrix kernels are
// arithmetic-bound and smaller tiles just multiply per-tile overhead.
const layerTileExp = 13

// crossTile reports whether a member must sweep the whole array on its
// own: it mixes amplitudes along a stride of at least one tile.
// Diagonals never do — above the tile they are a scalar per tile.
func (s *State) crossTile(m *member, tile int) bool {
	if m.diagonal() {
		return false
	}
	return s.maskOf(m.qa) >= tile || (m.twoQ() && s.maskOf(m.qb) >= tile)
}

// applyLayer executes a kLayer step: one whole-array sweep per cross-tile
// member, then one cache-blocked pass that runs every other member over
// each tile.
//
// The tile pass keeps the order in which earlier builds, which fused 2×2
// members in pairs, applied them: a tile-local 2×2 waits for the next one
// and the two run back to back, and one left unpaired runs after every
// other member. Members on disjoint qubits commute, but not in the last
// bits: a phase d applied after a 2×2 rounds as d·(u00·a0 + u01·a1),
// before it as u00·(d·a0) + u01·(d·a1). Keeping the order keeps every
// Monte-Carlo estimate of noise.MonteCarloVersion lockstep/v2
// (TestLayerOrderBits pins it).
func (s *State) applyLayer(members []member) {
	tile := min(1<<layerTileExp, len(s.Amp))
	for i := range members {
		if m := &members[i]; s.crossTile(m, tile) {
			s.apply(m, s.Amp, 0)
		}
	}
	for base := 0; base < len(s.Amp); base += tile {
		region := s.Amp[base : base+tile]
		var pend *member // a tile-local 2×2 waiting for the next one
		for i := range members {
			m := &members[i]
			switch {
			case s.crossTile(m, tile):
			case m.kind != kMat1Q:
				s.apply(m, region, base)
			case pend == nil:
				pend = m
			default:
				s.apply(pend, region, base)
				s.apply(m, region, base)
				pend = nil
			}
		}
		if pend != nil {
			s.apply(pend, region, base)
		}
	}
}
