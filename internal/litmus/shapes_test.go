package litmus

import (
	"testing"

	"tssim/internal/isa"
	"tssim/internal/mem"
)

// outcomeSet builds the expected allowed set from tuples.
func outcomeSet(tuples ...[]uint64) map[isa.Outcome]bool {
	s := map[isa.Outcome]bool{}
	for _, t := range tuples {
		s[o(t...)] = true
	}
	return s
}

// TestShapeOraclesMatchTextbook pins the model-computed allowed sets
// of the base shapes to their hand-derived TSO values. This is the
// self-check in both directions: the model must reach every textbook
// TSO-allowed outcome and must not reach any forbidden one.
func TestShapeOraclesMatchTextbook(t *testing.T) {
	want := map[string]map[isa.Outcome]bool{
		// TSO's signature: store buffering lets both loads miss both
		// stores, so the full cross product is reachable.
		"SB": outcomeSet([]uint64{0, 0}, []uint64{0, 1}, []uint64{1, 0}, []uint64{1, 1}),
		// FIFO drain order makes flag-then-stale-data impossible.
		"MP": outcomeSet([]uint64{0, 0}, []uint64{0, 1}, []uint64{1, 1}),
		// Loads never pass program-later stores, so both loads cannot
		// observe the other CPU's (later) store.
		"LB": outcomeSet([]uint64{0, 0}, []uint64{0, 1}, []uint64{1, 0}),
		// Coherence: same-location loads may not go backwards.
		"CoRR": outcomeSet([]uint64{0, 0}, []uint64{0, 1}, []uint64{1, 1}),
		"CoWW": outcomeSet([]uint64{0, 0}, []uint64{0, 1}, []uint64{0, 2},
			[]uint64{1, 1}, []uint64{1, 2}, []uint64{2, 2}),
	}
	for name, w := range want {
		s := ShapeByName(name)
		if s == nil {
			t.Fatalf("shape %s missing", name)
		}
		got := s.Allowed()
		for oc := range w {
			if !got[oc] {
				t.Errorf("%s: textbook-allowed %v not reached by model", name, oc)
			}
		}
		for oc := range got {
			if !w[oc] {
				t.Errorf("%s: model reaches %v, which TSO forbids", name, oc)
			}
		}
	}

	// IRIW's set is too large to enumerate by hand comfortably; TSO
	// with atomic (single-copy) stores forbids exactly the outcome
	// where the two readers disagree on the store order.
	iriw := ShapeByName("IRIW")
	if got := iriw.Allowed(); got[o(1, 0, 1, 0)] {
		t.Error("IRIW: model reaches (1,0,1,0) — store atomicity violated in the model")
	} else if len(got) != 15 {
		t.Errorf("IRIW: model reaches %d outcomes, want 15 (16 minus the non-atomic one)", len(got))
	}
}

// TestShapeForbiddenDisjointFromAllowed is the structural invariant:
// for every shape with a hand-written Forbidden list, no forbidden
// outcome is model-allowed, and every forbidden tuple has the shape's
// observation width.
func TestShapeForbiddenDisjointFromAllowed(t *testing.T) {
	for _, s := range Shapes() {
		allowed := s.Allowed()
		if len(allowed) == 0 {
			t.Fatalf("%s: empty allowed set", s.Name)
		}
		for _, f := range s.Forbidden {
			if f.N != s.NObs() {
				t.Errorf("%s: forbidden %v has width %d, shape observes %d", s.Name, f, f.N, s.NObs())
			}
			if allowed[f] {
				t.Errorf("%s: forbidden outcome %v is model-allowed", s.Name, f)
			}
		}
		for oc := range allowed {
			if oc.N != s.NObs() {
				t.Errorf("%s: allowed %v has width %d, shape observes %d", s.Name, oc, oc.N, s.NObs())
			}
		}
	}
}

// TestSilentVariantsWidenOracles checks the shape-specific effects of
// the exact-revert transform on the allowed sets: reverts legalize
// outcomes coherence forbids for the plain shape (the transient value
// really is followed by the old value), and the reader-side oracle
// must account for every drain interleaving of the widened pairs.
func TestSilentVariantsWidenOracles(t *testing.T) {
	// CoRR-silent: X goes 0 -> 1 -> 0, so reading 1 then 0 is now the
	// expected silent-window observation, not a coherence violation.
	if a := ShapeByName("CoRR-silent").Allowed(); !a[o(1, 0)] {
		t.Error("CoRR-silent: (1,0) should be allowed — the revert makes it coherent")
	}
	// MP-silent: P0 drains X:1, X:0, Y:1, Y:0 in FIFO order, so a
	// reader that saw Y==1 must afterwards see X==0: the revert of X
	// drained before Y's store. (1,1) — legal in plain MP — is gone,
	// and (1,0) — forbidden in plain MP — is now required.
	mps := ShapeByName("MP-silent").Allowed()
	if mps[o(1, 1)] {
		t.Error("MP-silent: (1,1) should be unreachable — X's revert drains before Y's store")
	}
	if !mps[o(1, 0)] {
		t.Error("MP-silent: (1,0) should be allowed")
	}
	// The silent window is real: during it, SB-silent's reader can
	// still observe the transient 1s.
	if a := ShapeByName("SB-silent").Allowed(); !a[o(1, 1)] {
		t.Error("SB-silent: transient (1,1) should be reachable inside the silent window")
	}
}

// TestShapeProgramsMatchModel runs every shape's rendered programs
// through the architectural interpreter (one deterministic
// round-robin interleaving, which under the interpreter's
// memory-at-once semantics is an SC execution — a subset of TSO) and
// checks the outcome lands in the allowed set and memory ends at
// FinalMem. This ties the isa.Builder rendering to the model: same op
// order, same observation tuple layout.
func TestShapeProgramsMatchModel(t *testing.T) {
	for _, s := range Shapes() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			for _, delays := range [][]int{nil, {0, 400}} {
				progs := s.Programs(delays)
				if len(progs) != s.CPUs() {
					t.Fatalf("rendered %d programs for %d CPUs", len(progs), s.CPUs())
				}
				m := mem.New()
				in := isa.NewInterp(m, progs...)
				if _, err := in.Run(1_000_000); err != nil {
					t.Fatalf("delays=%v: %v", delays, err)
				}
				got := isa.OutcomeOf(progs, in.Reg)
				if got.N != s.NObs() {
					t.Fatalf("delays=%v: outcome width %d, want %d", delays, got.N, s.NObs())
				}
				if !s.Allowed()[got] {
					t.Errorf("delays=%v: interpreter outcome %v not in allowed set %v",
						delays, got, s.AllowedList())
				}
				for addr, want := range s.FinalMem() {
					if v := m.ReadWord(addr); v != want {
						t.Errorf("delays=%v: final mem[%#x] = %d, want %d", delays, addr, v, want)
					}
				}
			}
		})
	}
}

// TestShapeRegistry covers lookup and naming.
func TestShapeRegistry(t *testing.T) {
	names := ShapeNames()
	if len(names) != 12 {
		t.Fatalf("registry has %d shapes, want 12 (6 base + 6 silent)", len(names))
	}
	for _, n := range names {
		if ShapeByName(n) == nil {
			t.Errorf("ShapeByName(%q) = nil", n)
		}
	}
	if ShapeByName("nope") != nil {
		t.Error("unknown shape lookup should return nil")
	}
	// Fresh instances: mutating one lookup's cache must not leak into
	// the next (shapes are used concurrently across subtests).
	a, b := ShapeByName("SB"), ShapeByName("SB")
	if a == b {
		t.Error("ShapeByName returned a shared instance")
	}
}
