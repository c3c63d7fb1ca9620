package arch

import "testing"

// FuzzParseFixedPoint: a spec Parse accepts prints, through String, to its
// canonical form, and the canonical form is a fixed point: it parses to an
// Arch equal to the first and prints the same string again. Machine specs
// are cache and journal identities (Arch.String feeds both), so a printed
// spec that reparses to other hardware, or to another spelling, would
// split or merge entries. The committed corpus under testdata/fuzz/ holds
// the registry's spellings with names, bases, timing and noise overrides.
func FuzzParseFixedPoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		a, err := Parse(s)
		if err != nil {
			return
		}
		canon := a.String()
		b, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) printed %q, which does not parse: %v", s, canon, err)
		}
		if !a.Equal(b) {
			t.Fatalf("Parse(%q) printed %q, which parses to %+v, not %+v", s, canon, b, a)
		}
		if again := b.String(); again != canon {
			t.Fatalf("Parse(%q) printed %q, which prints as %q", s, canon, again)
		}
	})
}
