package check_test

import (
	"fmt"
	"testing"

	"tssim/internal/litmus"
	"tssim/internal/sim"
)

// litmusBothPaths runs one litmus program under one technique with the
// coherence and commit checkers attached, once with next-event
// fast-forward (the default) and once with the naive every-cycle loop,
// and requires both runs to succeed — each has then passed its checkers
// and its closed-form finals — and to agree on the cycle count and
// every counter. The checkers see every store-visibility event either
// way, so a fast-forward bug that perturbed coherence would surface as
// a failed run here.
func litmusBothPaths(p litmus.Params, tech sim.Techniques) error {
	naive := runProgram(p, litmus.Variant{Tech: tech, NoFF: true})
	ff := runProgram(p, litmus.Variant{Tech: tech})
	if naive.Err != nil || ff.Err != nil {
		return fmt.Errorf("%s under %s: run failed: naive %v; ff %v", p, tech, naive.Err, ff.Err)
	}
	if naive.Cycles != ff.Cycles {
		return fmt.Errorf("%s under %s: cycles diverge: naive %d, ff %d",
			p, tech, naive.Cycles, ff.Cycles)
	}
	for k, v := range naive.Counters {
		if fv := ff.Counters[k]; fv != v {
			return fmt.Errorf("%s under %s: counter %s diverges: naive %d, ff %d",
				p, tech, k, v, fv)
		}
	}
	return nil
}

// TestLitmusFastForwardDifferential fuzzes randomized multi-CPU
// programs through both kernel paths with the full checker stack on.
// The litmus machine's tiny caches and structural limits force MSHR
// exhaustion and store-buffer pressure — exactly the states whose spin
// counters the fast-forward path replays in batch.
func TestLitmusFastForwardDifferential(t *testing.T) {
	corpus := []litmus.Params{
		{Seed: 0x0000000000000001, CPUs: 2, Ops: 8},
		{Seed: 0xdeadbeefcafef00d, CPUs: 2, Ops: 48},
		{Seed: 0x0123456789abcdef, CPUs: 3, Ops: 12},
		{Seed: 0x4242424242424242, CPUs: 4, Ops: 24},
		{Seed: 0x9e3779b97f4a7c15, CPUs: 4, Ops: 32},
		{Seed: 0x94d049bb133111eb, CPUs: 4, Ops: 48},
		// Max-length programs for the LSQ disambiguation filter: dense
		// store/load interleavings drive it through its fast path, its
		// memo, and the false-positive fallback, while the 4-MSHR litmus
		// machine's exhausted file keeps counted load retries on the
		// skip path.
		{Seed: 0x5deece66d00051e5, CPUs: 2, Ops: 48},
		{Seed: 0xa076bdf30cbe90d1, CPUs: 3, Ops: 48},
		{Seed: 0xc3a5c85c97cb3127, CPUs: 4, Ops: 48},
	}
	if testing.Short() {
		corpus = corpus[:2]
	}
	for _, p := range corpus {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			for _, tech := range sim.AllCombos() {
				if err := litmusBothPaths(p, tech); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
