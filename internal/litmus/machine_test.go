package litmus

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/sim"
)

// all is the full technique stack, the last of the bookend combos.
var all = sim.Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}

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
	for _, s := range Shapes() {
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
			for _, tech := range sim.AllCombos() {
				for _, noFF := range []bool{false, true} {
					for _, seed := range seeds {
						variants := []Variant{
							{Offsets: make([]uint64, s.CPUs()), Delays: make([]int, s.CPUs()),
								Tech: tech, NoFF: noFF, Seed: seed},
							{Offsets: perturbedOff, Delays: perturbedDly, ArbStart: 1,
								Tech: tech, NoFF: noFF, Seed: seed},
						}
						for _, v := range variants {
							oc, err := RunShape(s, v)
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
	combos := sim.AllCombos()
	if testing.Short() {
		combos = []sim.Techniques{{}, all}
	}
	for _, name := range []string{"SB", "MP"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep := Enumerate(ShapeByName(name), DefaultKnobs(combos))
			if !rep.OK() {
				t.Fatalf("violations:\n%s", rep)
			}
			if reached, allowed := rep.Coverage(); reached != allowed {
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
	combos := sim.AllCombos()
	if testing.Short() {
		combos = []sim.Techniques{{}, {MESTI: true}, all}
	}
	for _, s := range Shapes() {
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
				for _, tech := range combos {
					for _, noFF := range []bool{false, true} {
						variants := []Variant{
							{Offsets: make([]uint64, s.CPUs()), Delays: make([]int, s.CPUs()),
								Tech: tech, NoFF: noFF, Seed: 1, Interconnect: ic},
							{Offsets: perturbedOff, Delays: perturbedDly, ArbStart: 1,
								Tech: tech, NoFF: noFF, Seed: 1, Interconnect: ic},
						}
						for _, v := range variants {
							oc, err := RunShape(s, v)
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
	combos := sim.AllCombos()
	if testing.Short() {
		combos = []sim.Techniques{{}, all}
	}
	for _, name := range []string{"SB", "MP"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			reachedBy := map[string]string{}
			for _, ic := range bus.Kinds() {
				knobs := DefaultKnobs(combos)
				knobs.Interconnect = ic
				rep := Enumerate(ShapeByName(name), knobs)
				if !rep.OK() {
					t.Fatalf("%s violations:\n%s", ic, rep)
				}
				if reached, allowed := rep.Coverage(); reached != allowed {
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

// TestFirstAtReplaysItsOutcome reads every "first at" point an
// enumeration report prints back as a replay line, after the shape's
// name, and requires the replay to observe that line's outcome: the
// report's text is the replay syntax, the fabric included.
func TestFirstAtReplaysItsOutcome(t *testing.T) {
	knobs := DefaultKnobs([]sim.Techniques{{}, all})
	knobs.Interconnect = "directory"
	rep := Enumerate(ShapeByName("SB"), knobs)
	n := 0
	for _, line := range strings.Split(rep.String(), "\n") {
		before, point, ok := strings.Cut(line, ", first at ")
		if !ok {
			continue
		}
		n++
		r, err := ParseRepro("shape=SB " + point)
		if err != nil {
			t.Fatal(err)
		}
		oc, err := RunShape(ShapeByName(r.Shape), r.Variant)
		if err != nil {
			t.Fatalf("replay %s: %v", r, err)
		}
		if want := strings.Fields(before)[1]; oc.String() != want {
			t.Errorf("replay %s observed %s; the report says %s", r, oc, want)
		}
	}
	if n != 4 {
		t.Fatalf("report names %d first-at points, want SB's 4:\n%s", n, rep)
	}
}
