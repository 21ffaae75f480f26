package sim

import (
	"bytes"
	"testing"

	"tssim/internal/telemetry"
)

// The schedule-perturbation knobs (Config.StartOffsets and
// Bus.ArbStart) exist so the litmus enumeration mode can sweep
// distinct deterministic schedules. These tests pin down the three
// properties that sweep relies on: the knobs actually change timing,
// the same knob values always reproduce the same run, and the
// fast-forward kernel remains bit-identical to the naive loop with
// the knobs engaged.

func perturbedRun(t *testing.T, offsets []uint64, arb int, noFF bool) ([]byte, Result) {
	t.Helper()
	w := lockCounterWorkload(2, 10, 50, false)
	cfg := fastCfg(Techniques{MESTI: true, EMESTI: true})
	cfg.CPUs = 2
	cfg.StartOffsets = offsets
	cfg.Bus.ArbStart = arb
	cfg.NoFastForward = noFF
	s := New(cfg, w)
	r, err := s.RunErr(w)
	if err != nil {
		t.Fatalf("offsets=%v arb=%d noFF=%v: %v", offsets, arb, noFF, err)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteJSON(&buf, NewReport(cfg, r)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

func TestStartOffsetsPerturbDeterministically(t *testing.T) {
	base, baseRes := perturbedRun(t, nil, 0, false)
	// Zero offsets are the historical no-knob behavior.
	zero, _ := perturbedRun(t, []uint64{0, 0}, 0, false)
	if !bytes.Equal(base, zero) {
		t.Fatal("explicit zero offsets diverge from nil offsets")
	}
	// A nonzero offset must actually shift the schedule: core 1 starts
	// 700 cycles late, so the contention pattern — and with it the
	// total cycle count — changes. (It can shrink: a delayed starter
	// contends less for the lock.)
	shifted, shiftedRes := perturbedRun(t, []uint64{0, 700}, 0, false)
	if bytes.Equal(base, shifted) {
		t.Fatal("StartOffsets had no effect on the run")
	}
	if shiftedRes.Cycles == baseRes.Cycles {
		t.Fatalf("offset run finished in the same %d cycles as base: knob did not perturb timing",
			shiftedRes.Cycles)
	}
	// Same knobs, same run: the perturbation surface is deterministic.
	again, _ := perturbedRun(t, []uint64{0, 700}, 0, false)
	if !bytes.Equal(shifted, again) {
		t.Fatal("identical offsets produced different runs")
	}
	// ArbStart is an independent axis: rotating the arbitration
	// pointer with equal offsets must also reproduce exactly.
	arb1a, _ := perturbedRun(t, nil, 1, false)
	arb1b, _ := perturbedRun(t, nil, 1, false)
	if !bytes.Equal(arb1a, arb1b) {
		t.Fatal("identical ArbStart produced different runs")
	}
}

// TestPerturbedFastForwardBitIdentical extends the fast-forward
// differential to the perturbation knobs: a core gated behind
// StartOffsets looks exactly like a quiescent core to the next-event
// scan, so the kernel must skip its dead leading cycles without
// changing a single counter.
func TestPerturbedFastForwardBitIdentical(t *testing.T) {
	for _, offsets := range [][]uint64{{0, 700}, {350, 0}, {200, 900}} {
		naive, _ := perturbedRun(t, offsets, 1, true)
		ff, r := perturbedRun(t, offsets, 1, false)
		if !bytes.Equal(naive, ff) {
			t.Fatalf("offsets=%v: fast-forward report diverges from naive loop", offsets)
		}
		if r.SkippedCycles == 0 {
			t.Errorf("offsets=%v: fast-forward skipped no cycles", offsets)
		}
	}
}
