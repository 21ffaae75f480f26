package check_test

import (
	"strings"
	"testing"

	"tssim/internal/cache"
	"tssim/internal/check"
	"tssim/internal/checkrun"
	"tssim/internal/core"
	"tssim/internal/sim"
	"tssim/internal/workload"
)

// fullTech is the most invariant-stressing combo: every mechanism on.
func fullTech() sim.Techniques {
	return sim.Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}
}

// TestCheckerCleanWorkload runs a real Table 2 workload with the
// oracle attached and expects a clean bill: zero violations across a
// full program including capacity evictions, lock contention, silent
// pairs, and SLE regions.
func TestCheckerCleanWorkload(t *testing.T) {
	cfg := sim.ExperimentConfig()
	cfg.Tech = fullTech()
	cfg.Check = true
	cfg.CheckCommits = true
	w := workload.TPCB(workload.Params{CPUs: cfg.CPUs})
	s := sim.New(cfg, w)
	res, err := s.RunErr(w)
	if err != nil {
		t.Fatalf("checked run failed: %v", err)
	}
	if !res.Finished {
		t.Fatalf("checked run did not finish")
	}
	if n := s.Checker().Violations(); n != 0 {
		t.Fatalf("checker counted %d violations on a clean run", n)
	}
}

// TestCheckerPureObserver verifies the advertised contract: attaching
// the checker changes nothing observable — cycle count, retired
// instructions, every counter, and the finals are bit-identical with
// it on and off.
func TestCheckerPureObserver(t *testing.T) {
	run := func(checked bool) sim.Result {
		cfg := sim.ExperimentConfig()
		cfg.Tech = fullTech()
		cfg.Check = checked
		w := workload.Raytrace(workload.Params{CPUs: cfg.CPUs})
		res, err := sim.New(cfg, w).RunErr(w)
		if err != nil {
			t.Fatalf("run (check=%v) failed: %v", checked, err)
		}
		return res
	}
	on, off := run(true), run(false)
	if on.Cycles != off.Cycles || on.Retired != off.Retired {
		t.Fatalf("checker perturbed the run: cycles %d vs %d, retired %d vs %d",
			on.Cycles, off.Cycles, on.Retired, off.Retired)
	}
	for k, v := range off.Counters {
		if on.Counters[k] != v {
			t.Fatalf("checker perturbed counter %q: %d vs %d", k, on.Counters[k], v)
		}
	}
	for k, v := range on.Counters {
		// The only counters allowed to differ are ones that exist
		// solely because the ring tracer is attached — there are none
		// today; any asymmetry is a perturbation.
		if off.Counters[k] != v {
			t.Fatalf("checker added counter %q: %d vs %d", k, v, off.Counters[k])
		}
	}
}

// TestCheckerDetectsCorruption plants a single flipped word in one
// node's L2 copy of a line mid-run and verifies a full-machine sweep
// catches it — the data-value invariant is live, not decorative.
func TestCheckerDetectsCorruption(t *testing.T) {
	p := check.LitmusParams{Seed: 0x5eed, CPUs: 4, Ops: 32}
	w, _ := check.Litmus(p)
	cfg := checkrun.MachineConfig(fullTech(), len(w.Programs), 1)
	s := sim.New(cfg, w)

	// Run until some node holds a readable line with data, then flip
	// one word behind the protocol's back.
	corrupted := false
	for cycle := 0; cycle < 200_000 && !corrupted; cycle++ {
		s.Step()
		if cycle%512 != 0 {
			continue
		}
		for _, n := range s.Nodes {
			if corrupted {
				break
			}
			n.ForEachL2(func(l *cache.Line) {
				if corrupted || !core.Readable(l.State) {
					return
				}
				l.Data.SetWord(0, l.Data.Word(0)^0xdead)
				corrupted = true
			})
		}
	}
	if !corrupted {
		t.Fatalf("no readable L2 line appeared to corrupt")
	}
	s.Checker().Sweep()
	if s.Checker().Err() == nil {
		t.Fatalf("sweep missed the planted corruption")
	}
	if s.Checker().Violations() == 0 {
		t.Fatalf("violation count still zero after detected corruption")
	}
}

// TestCheckerHoldsFrameFlagsToState plants, one per run, the three
// states of a frame the protocol cannot reach — the silent flag on a
// line that is not dirty, the revalidated-unused flag on a line with no
// read permission, Validate_Shared under a line the L1 holds — and
// requires the next sweep to name each.
func TestCheckerHoldsFrameFlagsToState(t *testing.T) {
	for _, row := range []struct {
		name  string
		plant func(n *core.Controller, l *cache.Line) bool
		want  string
	}{
		{"silent and not dirty",
			func(_ *core.Controller, l *cache.Line) bool {
				if core.Dirty(l.State) {
					return false
				}
				l.Flags |= core.FlagSilent
				return true
			}, "flagged temporally silent"},
		{"revalidated-unused and unreadable",
			func(_ *core.Controller, l *cache.Line) bool {
				if core.Readable(l.State) {
					return false
				}
				l.Flags |= core.FlagRevalidated
				return true
			}, "flagged revalidated-and-unused"},
		{"VS and L1-resident",
			func(n *core.Controller, l *cache.Line) bool {
				if l.State != core.StateS || !n.L1Holds(l.Addr) {
					return false
				}
				l.State = core.StateVS
				return true
			}, "without readable, used L2 permission (L2 state VS)"},
	} {
		t.Run(row.name, func(t *testing.T) {
			w, _ := check.Litmus(check.LitmusParams{Seed: 0x5eed, CPUs: 4, Ops: 32})
			s := sim.New(checkrun.MachineConfig(fullTech(), len(w.Programs), 1), w)
			planted := false
			for cycle := 0; cycle < 200_000 && !planted; cycle++ {
				s.Step()
				if cycle%512 != 0 {
					continue
				}
				for _, n := range s.Nodes {
					n.ForEachL2(func(l *cache.Line) { planted = planted || row.plant(n, l) })
				}
			}
			if !planted {
				t.Fatal("no frame the row could plant on appeared")
			}
			if err := s.Checker().Err(); err != nil {
				t.Fatalf("the run was not clean before the sweep: %v", err)
			}
			s.Checker().Sweep()
			if err := s.Checker().Err(); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("sweep reported %v, want a violation naming %q", err, row.want)
			}
		})
	}
}
