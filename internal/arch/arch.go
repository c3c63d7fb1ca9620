// Package arch makes machines data: a declarative architecture spec — a
// registered topology family, its parameters, a native basis, and a
// per-gate-type timing table — that can be built from a CLI flag, a sweep
// configuration, a search candidate, or a network request, instead of a
// hand-enumerated Go constructor per design point.
//
// The spec grammar is one line:
//
//	family:key=value,key=value,...
//
// e.g. "corral:posts=8,strides=1+1,basis=sqrtiswap". The family must be
// registered (see Register; the built-in families cover every topology in
// the paper's comparison), parameter keys are family-specific, and several
// keys are reserved across all families:
//
//   - basis=cx|sqrtiswap|syc|iswap — the native two-qubit gate (default cx,
//     matching the paper's basis-independent SWAP-count sweeps);
//   - name=... — an optional display name (sweep label); defaults to the
//     canonical spec string;
//   - t-<gate>=<duration> — a per-gate-type timing override, e.g.
//     t-siswap=0.4 (gates not overridden keep DefaultTiming);
//   - e2q=<p>, tdec=<rate>, e2q-<a>-<b>=<p> — the architecture's noise
//     profile (§3.1 error regimes): per-application two-qubit control-error
//     probability, decoherence rate per unit pulse duration, and per-edge
//     control-error overrides for heterogeneous hardware (see NoiseProfile).
//
// List-valued parameters separate elements with '+' (strides=1+3), since
// ',' separates parameters; commas inside balanced parentheses do not split
// (name=Corral(1,1) is one parameter). Parse and Arch.String round-trip:
// Parse(a.String()) reproduces a exactly, with String emitting parameters
// in sorted order so the canonical form is unique.
package arch

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/weyl"
)

// Timing maps gate names to relative pulse durations, normalized so a full
// iSWAP exchange pulse is 1.0 (the paper's §4.2 unit). It is the
// per-architecture generalization of the old basis-global constants: the
// transpiler's pulse-duration metrics and the noise model's decoherence
// charges both read from a machine's table, and DefaultTiming reproduces
// the paper's normalization exactly.
type Timing map[string]float64

// DefaultTiming returns the paper's pulse-length normalization: CR and SYC
// pulses are one full pulse, the SNAIL's √iSWAP is half an iSWAP (§4.1), a
// logical SWAP is three half-pulses (only present pre-translation), and the
// Haar-random su4 placeholder counts one pulse. This is the single source
// of truth behind every machine built without an explicit table.
func DefaultTiming() Timing {
	return Timing{
		"cx": 1.0, "syc": 1.0, "iswap": 1.0, "siswap": 0.5,
		"swap": 1.5,
		"su4":  1.0,
	}
}

// Duration returns the pulse length of one gate application (0 for gates
// not in the table — 1Q gates are free in the paper's model).
func (t Timing) Duration(gate string) float64 { return t[gate] }

// Equal reports whether two tables assign identical durations (nil equals
// only nil-or-empty).
func (t Timing) Equal(o Timing) bool {
	if len(t) != len(o) {
		return false
	}
	for k, v := range t {
		ov, ok := o[k]
		if !ok || ov != v {
			return false
		}
	}
	return true
}

// NoiseProfile is an architecture's §3.1 error model as plain data, so the
// error regime travels with the spec the same way the timing table does:
// E2Q is the per-application depolarizing probability of any two-qubit gate
// (control-error regime), TDec converts pulse duration into per-qubit Pauli
// error probability p = 1−exp(−d·TDec) (decoherence regime), and EdgeE2Q
// overrides E2Q on individual couplings — the heterogeneous-hardware case
// where some links are better or worse than the fleet average, keyed by the
// (low, high) physical qubit pair.
type NoiseProfile struct {
	E2Q     float64
	TDec    float64
	EdgeE2Q map[[2]int]float64
}

// IsZero reports whether the profile describes noiseless hardware (a nil
// profile does).
func (p *NoiseProfile) IsZero() bool {
	return p == nil || (p.E2Q == 0 && p.TDec == 0 && len(p.EdgeE2Q) == 0)
}

// EdgeError returns the control-error probability of a two-qubit gate on
// the physical coupling (a, b): the per-edge override when one exists
// (order-insensitive), else the uniform E2Q. Safe on a nil profile (0).
func (p *NoiseProfile) EdgeError(a, b int) float64 {
	if p == nil {
		return 0
	}
	if a > b {
		a, b = b, a
	}
	if e, ok := p.EdgeE2Q[[2]int{a, b}]; ok {
		return e
	}
	return p.E2Q
}

// Equal reports whether two profiles describe the same error model; nil
// equals any all-zero profile.
func (p *NoiseProfile) Equal(o *NoiseProfile) bool {
	if p.IsZero() || o.IsZero() {
		return p.IsZero() && o.IsZero()
	}
	if p.E2Q != o.E2Q || p.TDec != o.TDec || len(p.EdgeE2Q) != len(o.EdgeE2Q) {
		return false
	}
	for e, v := range p.EdgeE2Q {
		ov, ok := o.EdgeE2Q[e]
		if !ok || ov != v {
			return false
		}
	}
	return true
}

// Clone returns an independent copy (nil stays nil).
func (p *NoiseProfile) Clone() *NoiseProfile {
	if p == nil {
		return nil
	}
	out := &NoiseProfile{E2Q: p.E2Q, TDec: p.TDec}
	if p.EdgeE2Q != nil {
		out.EdgeE2Q = make(map[[2]int]float64, len(p.EdgeE2Q))
		for e, v := range p.EdgeE2Q {
			out.EdgeE2Q[e] = v
		}
	}
	return out
}

// Edges returns the override pairs in sorted order, so cache keys and spec
// strings derived from the profile are canonical.
func (p *NoiseProfile) Edges() [][2]int {
	if p == nil || len(p.EdgeE2Q) == 0 {
		return nil
	}
	out := make([][2]int, 0, len(p.EdgeE2Q))
	for e := range p.EdgeE2Q {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// Arch is one declarative architecture: everything needed to realize a
// machine, as plain data. Params holds the family-specific parameters as
// raw grammar values (validated when the topology is built); Timing nil
// means DefaultTiming; Noise nil means noiseless hardware.
type Arch struct {
	Family string
	Params map[string]string
	Name   string
	Basis  weyl.Basis
	Timing Timing
	Noise  *NoiseProfile
}

// Equal reports spec identity: same family, parameters, name, basis,
// timing overrides, and noise profile. It is the relation String/Parse
// round-trips preserve.
func (a Arch) Equal(b Arch) bool {
	if a.Family != b.Family || a.Name != b.Name || a.Basis != b.Basis {
		return false
	}
	if len(a.Params) != len(b.Params) {
		return false
	}
	for k, v := range a.Params {
		if bv, ok := b.Params[k]; !ok || bv != v {
			return false
		}
	}
	return a.Timing.Equal(b.Timing) && a.Noise.Equal(b.Noise)
}

// EffectiveTiming resolves the spec's timing table: explicit overrides are
// laid over DefaultTiming, nil means the default exactly.
func (a Arch) EffectiveTiming() Timing {
	if a.Timing == nil {
		return DefaultTiming()
	}
	t := DefaultTiming()
	for k, v := range a.Timing {
		t[k] = v
	}
	return t
}

// basisTokens maps grammar tokens to bases, in both directions.
var basisTokens = map[string]weyl.Basis{
	"cx":        weyl.BasisCX,
	"sqrtiswap": weyl.BasisSqrtISwap,
	"syc":       weyl.BasisSYC,
	"iswap":     weyl.BasisISwap,
}

// BasisToken returns the grammar spelling of a basis.
func BasisToken(b weyl.Basis) string {
	for tok, bb := range basisTokens {
		if bb == b {
			return tok
		}
	}
	return fmt.Sprintf("basis%d", int(b))
}

// ParseBasis resolves a grammar basis token.
func ParseBasis(tok string) (weyl.Basis, error) {
	if b, ok := basisTokens[strings.ToLower(strings.TrimSpace(tok))]; ok {
		return b, nil
	}
	return 0, fmt.Errorf("arch: unknown basis %q (want cx, sqrtiswap, syc, or iswap)", tok)
}

// Parse decodes one spec string. The family must be registered, parameter
// keys must be ones the family declares (plus the reserved basis/name/t-*
// keys), and duplicate keys are rejected. Parameter *values* are validated
// later, when Build realizes the topology.
func Parse(s string) (Arch, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Arch{}, fmt.Errorf("arch: empty spec")
	}
	famName, rest, hasParams := strings.Cut(s, ":")
	famName = strings.TrimSpace(famName)
	fam, ok := Lookup(famName)
	if !ok {
		return Arch{}, fmt.Errorf("arch: unknown family %q (known: %s)", famName, strings.Join(FamilyNames(), ", "))
	}
	a := Arch{Family: fam.Name, Params: map[string]string{}, Basis: weyl.BasisCX}
	if !hasParams || strings.TrimSpace(rest) == "" {
		return a, nil
	}
	seen := map[string]bool{}
	for _, part := range splitOutsideParens(rest, ',') {
		key, val, ok := strings.Cut(part, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return Arch{}, fmt.Errorf("arch: %s: malformed parameter %q (want key=value)", fam.Name, strings.TrimSpace(part))
		}
		if seen[key] {
			return Arch{}, fmt.Errorf("arch: %s: duplicate parameter %q", fam.Name, key)
		}
		seen[key] = true
		switch {
		case key == "basis":
			b, err := ParseBasis(val)
			if err != nil {
				return Arch{}, err
			}
			a.Basis = b
		case key == "name":
			a.Name = val
		case strings.HasPrefix(key, "t-"):
			gate := strings.TrimPrefix(key, "t-")
			d, err := strconv.ParseFloat(val, 64)
			if err != nil || !(d >= 0) || math.IsInf(d, 1) || gate == "" {
				return Arch{}, fmt.Errorf("arch: %s: bad timing override %q=%q (want t-<gate>=<duration ≥ 0>)", fam.Name, key, val)
			}
			if d == 0 {
				d = 0 // one zero: -0 would print as -0 and hash apart from 0
			}
			if a.Timing == nil {
				a.Timing = Timing{}
			}
			a.Timing[gate] = d
		case key == "e2q" || key == "tdec" || strings.HasPrefix(key, "e2q-"):
			if a.Noise == nil {
				a.Noise = &NoiseProfile{}
			}
			if err := a.Noise.setKey(key, val); err != nil {
				return Arch{}, fmt.Errorf("arch: %s: %w", fam.Name, err)
			}
		default:
			if !fam.hasKey(key) {
				return Arch{}, fmt.Errorf("arch: %s: unknown parameter %q (usage: %s)", fam.Name, key, fam.Usage)
			}
			a.Params[key] = val
		}
	}
	// An explicitly all-zero noise profile means the same noiseless hardware
	// a noise-free spec does; normalizing to nil keeps String/Parse
	// round-trips exact and Equal transitive.
	if a.Noise.IsZero() {
		a.Noise = nil
	}
	return a, nil
}

// setKey decodes one noise grammar key (e2q=, tdec=, e2q-<a>-<b>=) into the
// profile, validating ranges: error probabilities live in [0,1), rates are
// ≥ 0, and edge endpoints are distinct non-negative qubit indices.
func (p *NoiseProfile) setKey(key, val string) error {
	v, err := strconv.ParseFloat(val, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("bad noise parameter %q=%q (not a number)", key, val)
	}
	if v == 0 {
		v = 0 // one zero: -0 would print as 0 yet hash as other bits
	}
	switch {
	case key == "e2q":
		if v < 0 || v >= 1 {
			return fmt.Errorf("bad noise parameter %q=%q (want an error probability in [0,1))", key, val)
		}
		p.E2Q = v
	case key == "tdec":
		if v < 0 {
			return fmt.Errorf("bad noise parameter %q=%q (want a decoherence rate ≥ 0)", key, val)
		}
		p.TDec = v
	default:
		ab := strings.Split(strings.TrimPrefix(key, "e2q-"), "-")
		if len(ab) != 2 {
			return fmt.Errorf("bad per-edge override %q (want e2q-<a>-<b>=<p>)", key)
		}
		a, errA := strconv.Atoi(ab[0])
		b, errB := strconv.Atoi(ab[1])
		if errA != nil || errB != nil || a < 0 || b < 0 || a == b {
			return fmt.Errorf("bad per-edge override %q (want two distinct qubit indices ≥ 0)", key)
		}
		if v < 0 || v >= 1 {
			return fmt.Errorf("bad per-edge override %q=%q (want an error probability in [0,1))", key, val)
		}
		if a > b {
			a, b = b, a
		}
		if p.EdgeE2Q == nil {
			p.EdgeE2Q = map[[2]int]float64{}
		}
		p.EdgeE2Q[[2]int{a, b}] = v
	}
	return nil
}

// ParseNoise decodes a standalone comma-separated noise profile — the same
// e2q=/tdec=/e2q-<a>-<b>= keys the spec grammar reserves, without a family
// head — for CLI flags like qcbench -noise. An all-zero profile normalizes
// to nil, mirroring Parse.
func ParseNoise(s string) (*NoiseProfile, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("arch: empty noise profile")
	}
	p := &NoiseProfile{}
	seen := map[string]bool{}
	for _, part := range splitOutsideParens(s, ',') {
		key, val, ok := strings.Cut(part, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return nil, fmt.Errorf("arch: malformed noise parameter %q (want key=value)", strings.TrimSpace(part))
		}
		if seen[key] {
			return nil, fmt.Errorf("arch: duplicate noise parameter %q", key)
		}
		seen[key] = true
		if key != "e2q" && key != "tdec" && !strings.HasPrefix(key, "e2q-") {
			return nil, fmt.Errorf("arch: unknown noise parameter %q (want e2q=, tdec=, or e2q-<a>-<b>=)", key)
		}
		if err := p.setKey(key, val); err != nil {
			return nil, fmt.Errorf("arch: %w", err)
		}
	}
	if p.IsZero() {
		return nil, nil
	}
	return p, nil
}

// noiseParts renders the profile's grammar parameters (unsorted; String
// sorts them among the other spec parts).
func (p *NoiseProfile) noiseParts() []string {
	if p.IsZero() {
		return nil
	}
	var parts []string
	if p.E2Q != 0 {
		parts = append(parts, "e2q="+strconv.FormatFloat(p.E2Q, 'g', -1, 64))
	}
	if p.TDec != 0 {
		parts = append(parts, "tdec="+strconv.FormatFloat(p.TDec, 'g', -1, 64))
	}
	for e, v := range p.EdgeE2Q {
		parts = append(parts, fmt.Sprintf("e2q-%d-%d=%s", e[0], e[1], strconv.FormatFloat(v, 'g', -1, 64)))
	}
	return parts
}

// String renders the profile in the canonical grammar form (sorted keys),
// so a profile prints the way a spec or -noise flag would spell it.
func (p *NoiseProfile) String() string {
	parts := p.noiseParts()
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// String renders the canonical spec: family, then every parameter —
// family-specific keys, basis, optional name, t-* overrides, noise keys —
// in sorted key order, so equal specs print identically and
// Parse(a.String()) reproduces a.
func (a Arch) String() string {
	parts := make([]string, 0, len(a.Params)+len(a.Timing)+2)
	for k, v := range a.Params {
		parts = append(parts, k+"="+v)
	}
	parts = append(parts, "basis="+BasisToken(a.Basis))
	if a.Name != "" {
		parts = append(parts, "name="+a.Name)
	}
	for g, d := range a.Timing {
		parts = append(parts, "t-"+g+"="+strconv.FormatFloat(d, 'g', -1, 64))
	}
	parts = append(parts, a.Noise.noiseParts()...)
	sort.Strings(parts)
	return a.Family + ":" + strings.Join(parts, ",")
}

// splitOutsideParens splits s on every sep not enclosed in parentheses, so
// display labels like "Corral(1,1)" survive parameter and list splitting.
func splitOutsideParens(s string, sep byte) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(':
			depth++
		case ')':
			if depth > 0 {
				depth--
			}
		case sep:
			if depth == 0 {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// SplitList cuts a list of specs into individual spec strings. Semicolons
// always separate specs; within a semicolon-free run, a comma-separated
// token that names a registered family (bare or with a ':' parameter head)
// starts a new spec — so the natural "spec,spec,..." form works even
// though ',' also separates parameters inside each spec.
func SplitList(s string) []string {
	var out []string
	for _, chunk := range strings.Split(s, ";") {
		var cur []string
		flush := func() {
			if len(cur) > 0 {
				out = append(out, strings.Join(cur, ","))
				cur = nil
			}
		}
		for _, tok := range splitOutsideParens(chunk, ',') {
			trimmed := strings.TrimSpace(tok)
			head := trimmed
			if i := strings.IndexByte(trimmed, ':'); i >= 0 {
				head = strings.TrimSpace(trimmed[:i])
			}
			if _, isFamily := Lookup(head); isFamily {
				flush()
			}
			if trimmed != "" || len(cur) > 0 {
				cur = append(cur, trimmed)
			}
		}
		flush()
	}
	return out
}

// ParseList decodes a comma- or semicolon-separated list of specs (see
// SplitList for how commas disambiguate).
func ParseList(s string) ([]Arch, error) {
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("arch: empty spec list")
	}
	specs := SplitList(s)
	out := make([]Arch, 0, len(specs))
	for _, spec := range specs {
		a, err := Parse(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
