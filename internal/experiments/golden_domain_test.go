package experiments

import (
	"crypto/sha256"
	"fmt"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// fig11GoldenPins pins the hash of the two fig11 goldens under the cache
// domain they were computed in, keyed by the hex EvaluateKey of
// goldenDomainKey's fixed evaluation, which moves exactly when
// core's evaluateKeyDomain does. Rows of earlier domains stay as history; a
// row is added, never edited.
var fig11GoldenPins = map[string]string{
	// core.Evaluate/v2
	"fc76ffab2139cbe1bf738f0c44fcfc8bc21c08b212f2c6628f04620d0efb6884": "9f94c05b1ea9d76d355f56afc1c986dd1725abb0e7b4078ccd08645047e66e8f",
}

// goldenDomainKey is the EvaluateKey of one fixed noiseless evaluation: it
// hashes the inputs, which never change, and evaluateKeyDomain.
func goldenDomainKey(t *testing.T) string {
	t.Helper()
	m, err := core.FromSpec("grid:rows=4,cols=4")
	if err != nil {
		t.Fatal(err)
	}
	return m.EvaluateKey(workloads.QFT(8, true), core.Options{Seed: 1, Trials: 3}).String()
}

// TestFig11GoldensPinnedToCacheDomain: a change that moves the fig11
// goldens moves what EvaluateContext computes for the same inputs, so a
// persistent cache would serve the old numbers as fresh unless it also
// bumps evaluateKeyDomain. The goldens see more routing decisions than
// TestEvaluateProbe's twenty evaluations (a 0.1 → 0.101 change of the
// router's perturbation scale moves the goldens and not the probe), so
// their hash is pinned per key domain here: regenerated goldens under an
// unchanged key fail with "bump evaluateKeyDomain", and a bumped domain
// asks for a new row.
func TestFig11GoldensPinnedToCacheDomain(t *testing.T) {
	h := sha256.New()
	for _, name := range []string{"fig11_quick_pr2.golden", "fig11_quick_profile_pr4.golden"} {
		b, err := os.ReadFile("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", name, len(b))
		h.Write(b)
	}
	got := fmt.Sprintf("%x", h.Sum(nil))
	key := goldenDomainKey(t)
	want, ok := fig11GoldenPins[key]
	switch {
	case !ok:
		t.Fatalf("no fig11 golden hash pinned under EvaluateKey %s (a new evaluateKeyDomain): add the row %q: %q", key, key, got)
	case got != want:
		t.Fatalf("fig11 goldens hash %s, pinned %s under the unchanged EvaluateKey %s: the goldens moved under an unchanged cache domain; bump evaluateKeyDomain and pin the new hash under the new key", got, want, key)
	}
}
