package transpile

// intArena hands out tiny []int slices (emitted ops' qubit lists) carved
// from chunked blocks, replacing one make per emitted op with one make per
// arenaChunk ints. Slices are full-capacity-capped so an append on one can
// never bleed into its neighbor, and blocks are referenced by the emitted
// circuit for exactly as long as the ops that point into them — the same
// lifetime the individual makes had.
type intArena struct {
	buf []int
}

// arenaChunk is the block size in ints. Emitted qubit lists are 1–2 ints,
// so one block serves hundreds of ops.
const arenaChunk = 512

// take returns a zeroed slice of n ints with capacity exactly n.
func (a *intArena) take(n int) []int {
	if n > len(a.buf) {
		size := arenaChunk
		if n > size {
			size = n
		}
		a.buf = make([]int, size)
	}
	s := a.buf[:n:n]
	a.buf = a.buf[n:]
	return s
}
