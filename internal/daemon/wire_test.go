package daemon

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workloads"
)

// TestNewSweepRequestRoundsTimeoutUp pins the cell timeout's trip onto the
// wire: a budget under a millisecond must not truncate to 0, which the
// server reads as its maximum.
func TestNewSweepRequestRoundsTimeoutUp(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int64
	}{
		{0, 0},
		{time.Nanosecond, 1},
		{time.Millisecond, 1},
		{time.Millisecond + time.Nanosecond, 2},
		{5 * time.Second, 5000},
	} {
		var spec experiments.SweepSpec
		spec.CellTimeout = tc.d
		if got := NewSweepRequest(spec, "").CellTimeoutMS; got != tc.want {
			t.Errorf("cell timeout %v: cell_timeout_ms %d, want %d", tc.d, got, tc.want)
		}
	}
}

// FuzzWireRequest holds the wire conversion to its inverse. Any /evaluate
// (sweep false) or /sweep (sweep true) body either fails the handler's
// decode or validation with an error — its 400 path — or converts to
// options that survive conversion → inverse → conversion unchanged, with
// the same identity form and, for a sweep, the same journal key. Machines
// are parsed but never built, and no circuit is generated: a mutated spec
// can name a million-qubit machine. The seed corpus, in
// testdata/fuzz/FuzzWireRequest, holds the other tests' requests.
func FuzzWireRequest(f *testing.F) {
	m, err := core.FromSpec("grid:rows=2,cols=2")
	if err != nil {
		f.Fatal(err)
	}
	c := workloads.GHZ(4)
	f.Fuzz(func(t *testing.T, sweep bool, body []byte) {
		if sweep {
			var req SweepRequest
			if decodeRequest(bytes.NewReader(body), &req) != nil {
				return
			}
			spec, err := req.spec()
			if err != nil {
				return
			}
			if _, err := arch.ParseList(req.Machines); err != nil {
				return // SpecFromRequest refuses it
			}
			back := NewSweepRequest(spec, req.Machines)
			again, err := back.spec()
			if err != nil {
				t.Fatalf("inverse %+v of a valid request fails validation: %v", back, err)
			}
			if !reflect.DeepEqual(again, spec) {
				t.Fatalf("round trip moved the sweep:\n%+v\n%+v", again, spec)
			}
			if !reflect.DeepEqual(again.Options.Identity(), spec.Options.Identity()) {
				t.Fatalf("round trip moved the identity form")
			}
			if sweepJournalKey(back, again) != sweepJournalKey(req, spec) {
				t.Fatalf("round trip moved the journal key: %+v vs %+v", back, req)
			}
			if rb := NewSweepRequest(again, req.Machines); !reflect.DeepEqual(rb, back) {
				t.Fatalf("inverse is not a fixed point:\n%+v\n%+v", rb, back)
			}
			return
		}
		var req EvaluateRequest
		if decodeRequest(bytes.NewReader(body), &req) != nil {
			return
		}
		opt, err := req.options(req.Seed, req.Trials)
		if err != nil {
			return
		}
		back := knobsOf(opt)
		again, err := back.options(opt.Seed, opt.Trials)
		if err != nil {
			t.Fatalf("inverse %+v of valid knobs fails validation: %v", back, err)
		}
		if !reflect.DeepEqual(again, opt) {
			t.Fatalf("round trip moved the options:\n%+v\n%+v", again, opt)
		}
		if !reflect.DeepEqual(again.Identity(), opt.Identity()) || m.EvaluateKey(c, again) != m.EvaluateKey(c, opt) {
			t.Fatalf("round trip moved the identity form")
		}
		if rb := knobsOf(again); rb != back {
			t.Fatalf("inverse is not a fixed point: %+v vs %+v", rb, back)
		}
	})
}
