//go:build amd64

package sim

import "testing"

// skipWithoutAVX skips t on an amd64 host without AVX: there the Go loops
// are the only kernel set, and a comparison would hold them against
// themselves.
func skipWithoutAVX(t testing.TB) {
	t.Helper()
	if !useAVX {
		t.Skip("no AVX on this host: tileMat1Q, tileMat2Q and scale run the Go loops, so there is no second kernel set to compare")
	}
}

// ForceGoKernels makes tileMat1Q, tileMat2Q and scale run the Go loops
// until t ends, as they do on an amd64 host without AVX. It skips t on such
// a host.
func ForceGoKernels(t testing.TB) {
	t.Helper()
	skipWithoutAVX(t)
	useAVX = false
	t.Cleanup(func() { useAVX = true })
}
