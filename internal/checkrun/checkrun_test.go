package checkrun

import (
	"fmt"
	"sort"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/check"
)

// TestShapesAllCombosBothPaths is the suite-level acceptance
// criterion: every shape in the library (six families plus silent
// variants) runs under all nine technique combos on both kernel
// paths, with the coherence and commit checkers attached, and every
// observed outcome lands inside the model's allowed set. Two grid
// points per cell: the unperturbed schedule and one representative
// perturbed schedule (offsets staggered, CPU 0 delayed, rotated
// arbitration).
func TestShapesAllCombosBothPaths(t *testing.T) {
	seeds := []uint64{1, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, s := range check.Shapes() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			allowed := s.Allowed()
			perturbedOff := make([]uint64, s.CPUs())
			perturbedDly := make([]int, s.CPUs())
			for i := range perturbedOff {
				perturbedOff[i] = uint64(320 * i % 760)
			}
			perturbedDly[0] = 500
			for _, combo := range ComboLabels() {
				for _, noFF := range []bool{false, true} {
					for _, seed := range seeds {
						variants := []check.Variant{
							{Offsets: make([]uint64, s.CPUs()), Delays: make([]int, s.CPUs()),
								Combo: combo, NoFF: noFF, Seed: seed},
							{Offsets: perturbedOff, Delays: perturbedDly, ArbStart: 1,
								Combo: combo, NoFF: noFF, Seed: seed},
						}
						for _, v := range variants {
							oc, err := RunShapeVariant(s, v)
							if err != nil {
								t.Fatalf("%s: %v", v, err)
							}
							if !allowed[oc] {
								t.Errorf("%s: outcome %s outside allowed set %v",
									v, oc, s.AllowedList())
							}
						}
					}
				}
			}
		})
	}
}

// TestEnumerateReachesAllAllowed is the model-checking acceptance
// criterion for the 2-core anchor shapes: the default grid must reach
// every TSO-allowed outcome of SB and MP — in both directions, since
// Enumerate also flags anything outside the set — with zero
// violations. A gap here means the schedule knobs lost the power to
// exhibit a legal reordering, which is a regression in test strength
// even though the simulator itself may be fine.
func TestEnumerateReachesAllAllowed(t *testing.T) {
	combos := ComboLabels()
	if testing.Short() {
		combos = []string{"Baseline", "E-MESTI+LVP+SLE"}
	}
	for _, name := range []string{"SB", "MP"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := EnumerateShape(name, check.DefaultKnobs(combos))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("violations:\n%s", rep)
			}
			if len(rep.Gaps) != 0 {
				t.Errorf("coverage gaps:\n%s", rep)
			}
			reached, allowed := rep.Coverage()
			t.Logf("%s: %d runs, %d/%d outcomes reached", name, rep.Runs, reached, allowed)
		})
	}
}

// TestShapesAllBackendsAllCombos extends the acceptance sweep across
// the coherence backends: every shape under every technique combo on
// both kernel paths must stay inside the allowed set on the
// split-transaction bus and the directory exactly as on the atomic
// bus (which the test above covers as Interconnect == ""). The
// perturbed variant rotates arbitration and staggers starts so the
// backends' different grant/ack timing actually reorders things.
func TestShapesAllBackendsAllCombos(t *testing.T) {
	combos := ComboLabels()
	if testing.Short() {
		combos = []string{"Baseline", "MESTI", "E-MESTI+LVP+SLE"}
	}
	for _, s := range check.Shapes() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			allowed := s.Allowed()
			perturbedOff := make([]uint64, s.CPUs())
			perturbedDly := make([]int, s.CPUs())
			for i := range perturbedOff {
				perturbedOff[i] = uint64(320 * i % 760)
			}
			perturbedDly[0] = 500
			for _, ic := range bus.Kinds() {
				for _, combo := range combos {
					for _, noFF := range []bool{false, true} {
						variants := []check.Variant{
							{Offsets: make([]uint64, s.CPUs()), Delays: make([]int, s.CPUs()),
								Combo: combo, NoFF: noFF, Seed: 1, Interconnect: ic},
							{Offsets: perturbedOff, Delays: perturbedDly, ArbStart: 1,
								Combo: combo, NoFF: noFF, Seed: 1, Interconnect: ic},
						}
						for _, v := range variants {
							oc, err := RunShapeVariant(s, v)
							if err != nil {
								t.Fatalf("%s: %v", v, err)
							}
							if !allowed[oc] {
								t.Errorf("%s: outcome %s outside allowed set %v",
									v, oc, s.AllowedList())
							}
						}
					}
				}
			}
		})
	}
}

// TestEnumerateBackendsDifferential is the differential oracle across
// coherence fabrics: the 2-core anchor shapes, enumerated over the
// default grid once per backend, must reach exactly the same outcome
// set on all three — the full TSO-allowed set, with zero violations.
// A backend-specific gap means its timing model lost the power to
// exhibit a legal reordering; a backend-specific extra outcome is a
// coherence bug in that fabric.
func TestEnumerateBackendsDifferential(t *testing.T) {
	combos := ComboLabels()
	if testing.Short() {
		combos = []string{"Baseline", "E-MESTI+LVP+SLE"}
	}
	for _, name := range []string{"SB", "MP"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reachedBy := map[string]string{}
			for _, ic := range bus.Kinds() {
				knobs := check.DefaultKnobs(combos)
				knobs.Interconnects = []string{ic}
				rep, err := EnumerateShape(name, knobs)
				if err != nil {
					t.Fatal(err)
				}
				if !rep.OK() {
					t.Fatalf("%s violations:\n%s", ic, rep)
				}
				if len(rep.Gaps) != 0 {
					t.Errorf("%s coverage gaps:\n%s", ic, rep)
				}
				var ocs []string
				for oc := range rep.Reached {
					ocs = append(ocs, oc.String())
				}
				sort.Strings(ocs)
				reachedBy[ic] = fmt.Sprint(ocs)
				reached, allowed := rep.Coverage()
				t.Logf("%s on %s: %d runs, %d/%d outcomes reached", name, ic, rep.Runs, reached, allowed)
			}
			ref := reachedBy[bus.Kinds()[0]]
			for ic, got := range reachedBy {
				if got != ref {
					t.Errorf("backend %s reached %s; %s reached %s", ic, got, bus.Kinds()[0], ref)
				}
			}
		})
	}
}

// TestEnumerateUnknownShape covers the name-resolution error path the
// CLI relies on.
func TestEnumerateUnknownShape(t *testing.T) {
	if _, err := EnumerateShape("nope", check.Knobs{}); err == nil {
		t.Fatal("unknown shape should error")
	}
	if _, err := RunShapeVariant(check.ShapeByName("SB"), check.Variant{Combo: "nope"}); err == nil {
		t.Fatal("unknown combo should error")
	}
}
