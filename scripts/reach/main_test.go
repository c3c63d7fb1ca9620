package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
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

// TestParseNamesFindsUnreferenced runs the name pass on a two-package tree:
// a name referenced bare in its package (tests included) or as pkg.Name
// from another package is used, a declaration in a test file or under
// testdata/ is neither declared nor a reference, and a field declaration
// or selector that shares a package-level name is no reference to it.
func TestParseNamesFindsUnreferenced(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"internal/a/a.go": `package a

const Used, unused = 1, 2

var local = 3

type (
	T int
	S struct{ shadowed int }
)

const shadowed = 4

func f(shadowed int) int { return local + shadowed }
`,
		"internal/a/a_test.go":        "package a\n\nvar _ T\n\nconst testOnly = 5\n",
		"internal/b/b.go":             "package b\n\nimport x \"repro/internal/a\"\n\nvar _ = x.Used + x.S{}.shadowed\n",
		"internal/a/testdata/skip.go": "package a\n\nvar _ = unused\n",
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	names, referenced, err := parseNames(root)
	if err != nil {
		t.Fatal(err)
	}
	var declared, unused []string
	for key := range names {
		declared = append(declared, key)
		if !referenced[key] {
			unused = append(unused, key)
		}
	}
	sort.Strings(declared)
	sort.Strings(unused)
	wantDeclared := []string{"a.S", "a.T", "a.Used", "a.local", "a.shadowed", "a.unused"}
	if !slices.Equal(declared, wantDeclared) {
		t.Errorf("declared = %v, want %v", declared, wantDeclared)
	}
	// The parameter shadowed in f reads as a reference (the accepted blind
	// spot); the struct field does not.
	if want := []string{"a.unused"}; !slices.Equal(unused, want) {
		t.Errorf("unreferenced = %v, want %v", unused, want)
	}
	problems, _, _ := compare(names, referenced, map[string]string{"a.Used": "fixture"})
	if len(problems) != 2 || !strings.Contains(problems[0], "a.unused is referenced by no Go file") ||
		!strings.Contains(problems[1], "a.Used is referenced now") {
		t.Errorf("problems = %q", problems)
	}
}
