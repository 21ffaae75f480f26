package litmus

import (
	"errors"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/sim"
)

// Enumeration engine unit tests: the grid (Knobs.variants) and the
// classification of scripted observations (EnumReport.record), with no
// machine behind them; machine_test.go runs the real one.

var baseline = []sim.Techniques{{}}

// scripted classifies one scripted result at every point of k's grid
// for s, as Enumerate would the machine's.
func scripted(s *Shape, k Knobs, result func(Variant) (isa.Outcome, error)) *EnumReport {
	rep := newEnumReport(s)
	for _, v := range k.variants(s.CPUs()) {
		oc, err := result(v)
		rep.record(v, oc, err)
	}
	return rep
}

func TestEnumerateGridAndClassification(t *testing.T) {
	sb := ShapeByName("SB")
	k := Knobs{
		Offsets:   []uint64{0, 100},
		ArbStarts: []int{0},
		Combos:    baseline,
		Paths:     []bool{false, true},
	}
	// 2 CPUs: offsets 2^2=4, delays default 1, arb 1, combo 1, paths 2.
	wantRuns := 8

	var calls []Variant
	rep := scripted(sb, k, func(v Variant) (isa.Outcome, error) {
		calls = append(calls, v)
		return o(0, 0), nil
	})
	if rep.Runs != wantRuns || len(calls) != wantRuns {
		t.Fatalf("runs = %d (calls %d), want %d", rep.Runs, len(calls), wantRuns)
	}
	if !rep.OK() {
		t.Fatalf("unexpected violations: %v", rep.Violations)
	}
	reached, allowed := rep.Coverage()
	if reached != 1 || allowed != 4 {
		t.Fatalf("coverage = %d/%d, want 1/4", reached, allowed)
	}
	if rep.Reached[o(0, 0)] != wantRuns {
		t.Fatalf("reached count = %d, want %d", rep.Reached[o(0, 0)], wantRuns)
	}
	// FirstSeen pins the deterministic first grid point.
	first := rep.FirstSeen[o(0, 0)]
	if first.Offsets[0] != 0 || first.Offsets[1] != 0 || first.NoFF {
		t.Fatalf("first seen at %s, want the all-zero ff point", first)
	}
	// Both kernel paths were actually swept.
	ff, noff := 0, 0
	for _, v := range calls {
		if v.NoFF {
			noff++
		} else {
			ff++
		}
	}
	if ff != wantRuns/2 || noff != wantRuns/2 {
		t.Fatalf("path split ff=%d noff=%d", ff, noff)
	}
}

func TestEnumerateFlagsViolations(t *testing.T) {
	sb := ShapeByName("SB")
	k := Knobs{Combos: baseline}
	bad := errors.New("checker fired")
	rep := scripted(sb, k, func(v Variant) (isa.Outcome, error) {
		return isa.Outcome{}, bad
	})
	if rep.OK() || len(rep.Violations) != rep.Runs {
		t.Fatalf("expected every run to violate, got %d/%d", len(rep.Violations), rep.Runs)
	}
	if !errors.Is(rep.Violations[0].Err, bad) {
		t.Fatalf("violation error = %v", rep.Violations[0].Err)
	}

	// An outcome outside the allowed set is a violation even though
	// the run succeeded.
	rep = scripted(sb, k, func(v Variant) (isa.Outcome, error) {
		return o(7, 7), nil
	})
	if rep.OK() {
		t.Fatal("forbidden outcome not flagged")
	}
	if rep.Violations[0].Outcome != o(7, 7) {
		t.Fatalf("violation outcome = %v", rep.Violations[0].Outcome)
	}
	if !strings.Contains(rep.String(), "VIOLATION") || !strings.Contains(rep.String(), "GAP") {
		t.Fatalf("report rendering missing sections:\n%s", rep.String())
	}
}

func TestEnumerateReportString(t *testing.T) {
	mp := ShapeByName("MP")
	k := Knobs{Combos: baseline}
	rep := scripted(mp, k, func(v Variant) (isa.Outcome, error) {
		return o(1, 1), nil
	})
	out := rep.String()
	for _, want := range []string{"shape MP", "1/3 allowed outcomes", "reached (1,1)", "GAP     (0,0)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
