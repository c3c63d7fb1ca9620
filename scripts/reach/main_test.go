package main

import (
	"strings"
	"testing"
)

// storeShape is the shape name the linker gives cache.Store[core.Metrics]:
// a struct type with spaces inside the brackets.
const storeShape = "go.shape.struct { Machine string; Workload string; Width int; PreRouting2Q int; TotalSwaps int; InducedSwaps int; CriticalSwaps int; Total2Q int; Critical2Q int; PulseDuration float64; EstFidelity float64; ControlFidelity float64; DecoherenceFidelity float64 }"

// TestSymbolKeyNMLines feeds symbolKey lines of go tool nm output as it
// prints them for this repository's binaries.
func TestSymbolKeyNMLines(t *testing.T) {
	for _, tc := range []struct {
		line, want string
	}{
		{"  559a20 T repro/internal/cache.(*Store[" + storeShape + "]).Get", "cache.Store.Get"},
		{"  6cc6a0 T repro/internal/cache.NewMemory[" + storeShape + "]", "cache.NewMemory"},
		{"  553920 T repro/internal/transpile.grow[go.shape.[2]int]", "transpile.grow"},
		// A value method seen only through its autogenerated pointer wrapper.
		{"  5264a0 T repro/internal/cache.(*Key).String", "cache.Key.String"},
		{"  525cc0 T repro/internal/cache.Key.String", "cache.Key.String"},
		{"  55a020 T repro/internal/arch.(*NoiseProfile).EdgeError-fm", "arch.NoiseProfile.EdgeError"},
		{"  537660 T repro/internal/arch.(*NoiseProfile).Edges.func1", "arch.NoiseProfile.Edges.func1"},
		{"  53ac60 t repro/internal/arch.Families.func1", "arch.Families.func1"},
		{"  544380 T repro/internal/transpile.Layout.Copy", "transpile.Layout.Copy"},
	} {
		if got, ok := symbolKey(tc.line); !ok || got != tc.want {
			t.Errorf("%q: normalized to %q (ok=%v), want %q", tc.line, got, ok, tc.want)
		}
	}
}

func TestSymbolKeySkipsOtherSymbols(t *testing.T) {
	for _, line := range []string{
		"  81d4d0 R go:itab.repro/internal/cache.OSFS,repro/internal/cache.FS",
		"  8a1f00 D repro/internal/weyl.CoordCNOT",
		"  4b2e40 T fmt.Println",
		"  4c0000 T repro/qcperf.main",
		"",
	} {
		if key, ok := symbolKey(line); ok {
			t.Errorf("%q: read as %q", line, key)
		}
	}
}

func TestReadLinked(t *testing.T) {
	in := strings.Join([]string{
		"  559a20 T repro/internal/cache.(*Store[" + storeShape + "]).Get",
		"  5264a0 T repro/internal/cache.(*Key).String",
		"  81d4d0 R go:itab.repro/internal/cache.OSFS,repro/internal/cache.FS",
	}, "\n")
	linked, err := readLinked(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(linked) != 2 || !linked["cache.Store.Get"] || !linked["cache.Key.String"] {
		t.Fatalf("linked = %v, want cache.Store.Get and cache.Key.String", linked)
	}
}

func TestCompareReportsUnlistedAndStale(t *testing.T) {
	decls := map[string]fn{
		"a.Linked":   {lines: 3},
		"a.Listed":   {lines: 4},
		"a.Unlisted": {lines: 5},
		"a.Both":     {lines: 1},
	}
	linked := map[string]bool{"a.Linked": true, "a.Both": true}
	allow := map[string]string{"a.Listed": "oracle", "a.Both": "oracle", "a.Gone": "oracle"}
	problems, unlinked, total := compare(decls, linked, allow)
	if unlinked != 9 || total != 13 {
		t.Errorf("unlinked, total = %d, %d; want 9, 13", unlinked, total)
	}
	want := []string{"a.Unlisted (5 lines) is linked by no binary", "a.Both is linked", "a.Gone names no function"}
	if len(problems) != len(want) {
		t.Fatalf("problems = %q, want %d", problems, len(want))
	}
	for i, w := range want {
		if !strings.Contains(problems[i], w) {
			t.Errorf("problem %d = %q, want it to mention %q", i, problems[i], w)
		}
	}
}
