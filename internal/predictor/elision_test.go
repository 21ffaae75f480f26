package predictor

import "testing"

func TestElisionFirstAttemptAllowed(t *testing.T) {
	e := NewElisionPredictor()
	if !e.ShouldAttempt(0x100) {
		t.Fatal("unseen PC must get one optimistic attempt")
	}
}

func TestElisionNoReleaseKillsPCQuickly(t *testing.T) {
	e := NewElisionPredictor()
	e.Record(0x100, ElisionNoRelease)
	if e.ShouldAttempt(0x100) {
		t.Fatal("idiom false positive must disable the PC after one hard failure")
	}
}

func TestElisionConflictIsForgivable(t *testing.T) {
	e := NewElisionPredictor()
	e.Record(0x100, ElisionSuccess) // conf 5
	e.Record(0x100, ElisionConflict)
	if !e.ShouldAttempt(0x100) {
		t.Fatal("one transient conflict after a success must not disable SLE")
	}
	e.Record(0x100, ElisionConflict)
	e.Record(0x100, ElisionConflict)
	if e.ShouldAttempt(0x100) {
		t.Fatal("repeated conflicts must eventually disable SLE")
	}
}

func TestElisionSuccessRecovers(t *testing.T) {
	e := NewElisionPredictor()
	e.Record(0x100, ElisionOverflow) // conf 2, below threshold
	if e.ShouldAttempt(0x100) {
		t.Fatal("overflow should disable")
	}
	e.Record(0x100, ElisionSuccess)
	e.Record(0x100, ElisionSuccess)
	if !e.ShouldAttempt(0x100) {
		t.Fatal("successes must re-enable the PC")
	}
}

func TestElisionSaturationBounds(t *testing.T) {
	e := NewElisionPredictor()
	for i := 0; i < 50; i++ {
		e.Record(0x100, ElisionSuccess)
	}
	if got := e.Confidence(0x100); got != 7 {
		t.Fatalf("confidence = %d, want 7", got)
	}
	for i := 0; i < 50; i++ {
		e.Record(0x100, ElisionUnsafe)
	}
	if got := e.Confidence(0x100); got != 0 {
		t.Fatalf("confidence = %d, want 0", got)
	}
}

func TestElisionPCInterference(t *testing.T) {
	// The documented weakness: two critical sections behind one
	// static SC PC interfere. The test pins the behavior: failures
	// from one caller poison the other.
	e := NewElisionPredictor()
	e.Record(0x100, ElisionNoRelease) // "atomic list insert" use
	if e.ShouldAttempt(0x100) {
		t.Fatal("shared PC must be disabled for the lock use too")
	}
	// A different PC is unaffected.
	if !e.ShouldAttempt(0x200) {
		t.Fatal("distinct PC must be independent")
	}
}

func TestElisionOutcomeStrings(t *testing.T) {
	want := map[ElisionOutcome]string{
		ElisionSuccess: "success", ElisionNoRelease: "no_release",
		ElisionConflict: "conflict", ElisionOverflow: "overflow",
		ElisionUnsafe: "unsafe", ElisionOutcome(99): "unknown",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}
