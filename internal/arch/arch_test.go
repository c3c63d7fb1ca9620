package arch

import (
	"math"
	"strings"
	"testing"

	"repro/internal/weyl"
)

func mustParse(t *testing.T, s string) Arch {
	t.Helper()
	a, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return a
}

func TestParseStringRoundTrip(t *testing.T) {
	specs := []string{
		"grid:rows=4,cols=4",
		"grid:rows=7,cols=12,basis=syc",
		"heavyhex:fragment=20,basis=cx",
		"heavyhex:rows=5,cols=14",
		"tree:levels=2,basis=sqrtiswap",
		"tree:levels=3,radix=3",
		"tree-rr:levels=2,basis=sqrtiswap,name=Tree-RR-sqrtISWAP",
		"corral:posts=8,strides=1+1,basis=sqrtiswap",
		"corral:posts=11,strides=1+3+5",
		"hypercube:dim=4,basis=iswap",
		"hypercube:dim=7,trim=84,t-siswap=0.4,t-cx=2",
		"hex:rows=4,cols=5,name=Honeycomb",
		"altdiag:rows=7,cols=12",
		"corral:posts=8,strides=1+1,name=Corral(1,1)",
	}
	for _, s := range specs {
		a := mustParse(t, s)
		b := mustParse(t, a.String())
		if !a.Equal(b) {
			t.Errorf("round trip broke %q: %q reparsed as %+v, want %+v", s, a.String(), b, a)
		}
		if c := mustParse(t, b.String()); b.String() != c.String() {
			t.Errorf("canonical form of %q is unstable: %q vs %q", s, b.String(), c.String())
		}
	}
}

func TestParseDefaults(t *testing.T) {
	a := mustParse(t, "grid:rows=4,cols=4")
	if a.Basis != weyl.BasisCX {
		t.Errorf("default basis = %v, want CX", a.Basis)
	}
	if a.Timing != nil {
		t.Errorf("default timing = %v, want nil (meaning DefaultTiming)", a.Timing)
	}
	if !a.EffectiveTiming().Equal(DefaultTiming()) {
		t.Errorf("EffectiveTiming() = %v, want DefaultTiming", a.EffectiveTiming())
	}
	if got := a.Label(); got != a.String() {
		t.Errorf("Label() without name = %q, want canonical spec %q", got, a.String())
	}
	named := mustParse(t, "grid:rows=4,cols=4,name=Square-Lattice")
	if named.Label() != "Square-Lattice" {
		t.Errorf("Label() with name = %q", named.Label())
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct{ spec, wantFrag string }{
		{"", "empty spec"},
		{"moebius:rows=3", "unknown family"},
		{"grid:rows", "malformed parameter"},
		{"grid:rows=4,rows=5", "duplicate parameter"},
		{"grid:rows=4,cols=4,posts=8", "unknown parameter"},
		{"grid:rows=4,cols=4,basis=cz", "unknown basis"},
		{"grid:rows=4,cols=4,t-cx=fast", "bad timing override"},
		{"grid:rows=4,cols=4,t-cx=-1", "bad timing override"},
		{"grid:rows=4,cols=4,t-cx=NaN", "bad timing override"},
		{"grid:rows=4,cols=4,t-cx=Inf", "bad timing override"},
		{"grid:rows=4,cols=4,t-cx=+Inf", "bad timing override"},
		{"grid:rows=4,cols=4,t-cx=-Inf", "bad timing override"},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil || !strings.Contains(err.Error(), c.wantFrag) {
			t.Errorf("Parse(%q) err = %v, want fragment %q", c.spec, err, c.wantFrag)
		}
	}
}

// TestTimingOverrideNegativeZero: t-<gate>=-0 is the zero duration, with
// the same canonical spec and the same stored bits as t-<gate>=0.
func TestTimingOverrideNegativeZero(t *testing.T) {
	neg, zero := mustParse(t, "grid:rows=4,cols=4,t-cx=-0"), mustParse(t, "grid:rows=4,cols=4,t-cx=0")
	if neg.String() != zero.String() {
		t.Errorf("t-cx=-0 prints %q, t-cx=0 prints %q", neg.String(), zero.String())
	}
	if d := neg.Timing["cx"]; d != 0 || math.Signbit(d) {
		t.Errorf("t-cx=-0 stored %v (sign bit %v), want +0", d, math.Signbit(d))
	}
	if !neg.Equal(zero) {
		t.Error("t-cx=-0 and t-cx=0 parse to different machines")
	}
}

func TestTimingOverridesLayerOverDefault(t *testing.T) {
	a := mustParse(t, "grid:rows=4,cols=4,t-siswap=0.4")
	eff := a.EffectiveTiming()
	if eff.Duration("siswap") != 0.4 {
		t.Errorf("override lost: siswap = %v", eff.Duration("siswap"))
	}
	if eff.Duration("cx") != 1.0 || eff.Duration("swap") != 1.5 {
		t.Errorf("non-overridden gates changed: %v", eff)
	}
	if DefaultTiming().Duration("siswap") != 0.5 {
		t.Errorf("EffectiveTiming mutated the default table")
	}
}

func TestTimingEqualClone(t *testing.T) {
	d := DefaultTiming()
	if !d.Equal(DefaultTiming()) {
		t.Errorf("two default tables differ")
	}
	c := DefaultTiming()
	c["cx"] = 9
	if d.Equal(c) || d.Duration("cx") != 1.0 {
		t.Errorf("Equal missed a changed entry")
	}
	if (Timing)(nil).Equal(Timing{"cx": 1}) || !(Timing)(nil).Equal(Timing{}) {
		t.Errorf("nil-timing equality wrong")
	}
}

// TestRegistryIntegrity is the registry's structural invariant, also run by
// scripts/check.sh: every registered family parses and builds its smoke
// spec into a nonempty connected graph, and no two families collide on
// name or produce fingerprint-identical smoke topologies.
func TestRegistryIntegrity(t *testing.T) {
	fams := Families()
	if len(fams) < 8 {
		t.Fatalf("only %d families registered, want the 8 built-ins", len(fams))
	}
	seenNames := map[string]bool{}
	seenPrints := map[uint64]string{}
	for _, f := range fams {
		if seenNames[f.Name] {
			t.Errorf("duplicate family name %q", f.Name)
		}
		seenNames[f.Name] = true
		if f.Smoke == "" || f.Usage == "" {
			t.Errorf("family %q missing smoke spec or usage", f.Name)
			continue
		}
		a, err := Parse(f.Smoke)
		if err != nil {
			t.Errorf("family %q smoke spec does not parse: %v", f.Name, err)
			continue
		}
		if a.Family != f.Name {
			t.Errorf("family %q smoke spec names family %q", f.Name, a.Family)
		}
		g, err := a.Build()
		if err != nil {
			t.Errorf("family %q smoke build: %v", f.Name, err)
			continue
		}
		if g.N() < 2 || !g.IsConnected() {
			t.Errorf("family %q smoke graph: n=%d connected=%v, want a connected machine", f.Name, g.N(), g.IsConnected())
		}
		if prev, dup := seenPrints[g.Fingerprint()]; dup {
			t.Errorf("families %q and %q build fingerprint-identical smoke graphs", prev, f.Name)
		}
		seenPrints[g.Fingerprint()] = f.Name
	}
}

func TestRegistryBuildsConnectedAtRepresentativeParams(t *testing.T) {
	// Beyond the smoke points: paper-scale and off-nominal parameters per
	// family, all of which must produce connected graphs.
	specs := []string{
		"grid:rows=7,cols=12",
		"hex:rows=7,cols=12",
		"altdiag:rows=7,cols=12",
		"heavyhex:rows=5,cols=14",
		"tree:levels=3",
		"tree:levels=2,radix=6",
		"tree-rr:levels=3",
		"tree-rr:levels=2,radix=3",
		"corral:posts=11,strides=1+4",
		"corral:posts=5,strides=2",
		"hypercube:dim=7,trim=84",
		"hypercube:dim=3",
	}
	for _, s := range specs {
		g, err := mustParse(t, s).Build()
		if err != nil {
			t.Errorf("Build(%q): %v", s, err)
			continue
		}
		if !g.IsConnected() {
			t.Errorf("Build(%q) is disconnected", s)
		}
	}
}

func TestRegisterRejectsDuplicatesAndMalformed(t *testing.T) {
	build := Families()[0].Build
	if err := Register(Family{Name: "grid", Build: build}); err == nil {
		t.Errorf("duplicate family name accepted")
	}
	for _, bad := range []string{"", "has space", "has:colon", "has,comma", "k=v"} {
		if err := Register(Family{Name: bad, Build: build}); err == nil {
			t.Errorf("malformed family name %q accepted", bad)
		}
	}
	if err := Register(Family{Name: "buildless"}); err == nil {
		t.Errorf("family without Build accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct{ spec, wantFrag string }{
		{"grid:rows=4", "missing required parameter"},
		{"grid:rows=four,cols=4", "not an integer"},
		{"grid:rows=0,cols=4", "out of range"},
		{"tree:levels=9", "out of range"},
		{"tree:levels=2,radix=1", "out of range"},
		{"tree-rr:levels=4", "out of range"},
		{"corral:posts=2,strides=1", "out of range"},
		{"corral:posts=8,strides=1+9", "stride 9 out of range"},
		{"corral:posts=8,strides=1+x", "integer list"},
		{"hypercube:dim=0", "out of range"},
		{"hypercube:dim=3,trim=9", "out of range"},
		{"heavyhex:fragment=21", "unknown fragment"},
		{"heavyhex:fragment=20,rows=5", "fragment excludes"},
		{"heavyhex:rows=1,cols=14", "≥ 2"},
	}
	for _, c := range cases {
		a, err := Parse(c.spec)
		if err != nil {
			t.Errorf("Parse(%q) failed early: %v (want Build-time error)", c.spec, err)
			continue
		}
		if _, err := a.Build(); err == nil || !strings.Contains(err.Error(), c.wantFrag) {
			t.Errorf("Build(%q) err = %v, want fragment %q", c.spec, err, c.wantFrag)
		}
	}
}

func TestSplitList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"grid:rows=4,cols=4", []string{"grid:rows=4,cols=4"}},
		{
			"grid:rows=4,cols=4,hypercube:dim=4,tree:levels=2",
			[]string{"grid:rows=4,cols=4", "hypercube:dim=4", "tree:levels=2"},
		},
		{
			"grid:rows=4,cols=4;hypercube:dim=4",
			[]string{"grid:rows=4,cols=4", "hypercube:dim=4"},
		},
		{
			"corral:posts=8,strides=1+1,basis=sqrtiswap,corral:posts=8,strides=1+3",
			[]string{"corral:posts=8,strides=1+1,basis=sqrtiswap", "corral:posts=8,strides=1+3"},
		},
		{" grid:rows=2,cols=2 ; ", []string{"grid:rows=2,cols=2"}},
		{
			// Parenthesized labels keep their commas through both list and
			// parameter splitting.
			"corral:posts=8,strides=1+1,name=Corral(1,1),corral:posts=8,strides=1+3,name=Corral(1,2)",
			[]string{"corral:posts=8,strides=1+1,name=Corral(1,1)", "corral:posts=8,strides=1+3,name=Corral(1,2)"},
		},
	}
	for _, c := range cases {
		got := SplitList(c.in)
		if len(got) != len(c.want) {
			t.Errorf("SplitList(%q) = %q, want %q", c.in, got, c.want)
			continue
		}
		for i := range got {
			if strings.TrimSpace(got[i]) != c.want[i] {
				t.Errorf("SplitList(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseList(t *testing.T) {
	as, err := ParseList("grid:rows=4,cols=4,basis=syc,hypercube:dim=4,basis=sqrtiswap")
	if err != nil {
		t.Fatalf("ParseList: %v", err)
	}
	if len(as) != 2 || as[0].Family != "grid" || as[1].Family != "hypercube" {
		t.Fatalf("ParseList = %+v", as)
	}
	if as[0].Basis != weyl.BasisSYC || as[1].Basis != weyl.BasisSqrtISwap {
		t.Errorf("bases lost in list split: %v, %v", as[0].Basis, as[1].Basis)
	}
	if _, err := ParseList(" "); err == nil {
		t.Errorf("empty list accepted")
	}
	if _, err := ParseList("grid:rows=4,cols=4,bogus=1"); err == nil {
		t.Errorf("bad trailing spec accepted")
	}
}
