package check_test

import (
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/check"
	"tssim/internal/core"
	"tssim/internal/isa"
	"tssim/internal/litmus"
	"tssim/internal/mem"
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
	w := litmus.Program(litmus.Params{Seed: 0x5eed, CPUs: 4, Ops: 32})
	s := sim.New(litmus.MachineConfig(litmus.Variant{Tech: fullTech(), Seed: 1}, len(w.Programs)), w)

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
			w := litmus.Program(litmus.Params{Seed: 0x5eed, CPUs: 4, Ops: 32})
			s := sim.New(litmus.MachineConfig(litmus.Variant{Tech: fullTech(), Seed: 1}, len(w.Programs)), w)
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

// Lines of the detection machine: x is read by both nodes, y stored by
// node 0, and z0..z4 — five lines of one four-way L2 set — stored by
// node 0 after them, so the fifth fill evicts a dirty line.
const (
	lineX  = 0x8000
	lineY  = 0x8040
	lineZ  = 0x10080
	initX  = 0x11
	storeY = 7
)

// detectionWorkload leaves x shared by both nodes, y modified in node 0
// and one writeback on its way from node 0 shortly before the end.
func detectionWorkload() sim.Workload {
	b0 := isa.NewBuilder("detect-cpu0")
	b0.Li(isa.R8, lineX)
	b0.Ld(isa.R1, isa.R8, 0)
	b0.Li(isa.R9, lineY)
	b0.Li(isa.R10, storeY)
	b0.St(isa.R10, isa.R9, 0)
	for z := 0; z < 5; z++ {
		b0.Li(isa.R9, int64(lineZ+z*0x200))
		b0.Li(isa.R10, int64(z+1))
		b0.St(isa.R10, isa.R9, 0)
	}
	b0.Halt()
	b1 := isa.NewBuilder("detect-cpu1")
	b1.Li(isa.R8, lineX)
	b1.Ld(isa.R1, isa.R8, 0)
	b1.Halt()
	return sim.Workload{
		Name:     "detect",
		Programs: []*isa.Program{b0.Build(), b1.Build()},
		Init:     func(m *mem.Memory) { m.WriteWord(lineX, initX) },
	}
}

// TestCheckerNamesEveryViolation plants, one per row, the fault each of
// the checker's reports names and requires that report. A row runs the
// detection machine (Baseline, so T and VS are illegal) to the end, or
// steps it until its until holds, then plants through the surface the
// machine feeds the checker — a frame, memory, the CheckSink, a core's
// OnCommitDebug, the grant hook — and runs the check that must fire.
func TestCheckerNamesEveryViolation(t *testing.T) {
	frame := func(s *sim.System, node int, la uint64) *cache.Line {
		var f *cache.Line
		s.Nodes[node].ForEachL2(func(l *cache.Line) {
			if l.Addr == la {
				f = l
			}
		})
		if f == nil {
			t.Fatalf("node%d holds no frame for %#x", node, la)
		}
		return f
	}
	retire := func(s *sim.System, node int, addr, value uint64) {
		s.Cores[node].OnCommitDebug(0, 0, isa.Instr{Op: isa.OpLd, Imm: int64(addr)}, 0, 0, value)
	}
	for _, row := range []struct {
		name  string
		until func(s *sim.System) bool // nil: run to the end
		plant func(s *sim.System, k *check.Checker)
		want  string
	}{
		{name: "two M/E holders", want: "SWMR violated: 2 nodes hold 0x8000 in M/E",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 0, lineX).State, frame(s, 1, lineX).State = core.StateE, core.StateE
				k.Sweep()
			}},
		{name: "M/E beside a sharer", want: "an M/E holder of 0x8000 coexists with 0 O and 1 S/VS copies",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 0, lineX).State = core.StateM
				k.Sweep()
			}},
		{name: "two owners", want: "SWMR violated: 2 owners (O) of 0x8000",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 0, lineX).State, frame(s, 1, lineX).State = core.StateO, core.StateO
				k.Sweep()
			}},
		{name: "VS without E-MESTI", want: "node1 holds 0x8000 in VS without E-MESTI",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 1, lineX).State = core.StateVS
				k.Sweep()
			}},
		{name: "T without MESTI", want: "node1 holds 0x8000 in T without MESTI",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 1, lineX).State = core.StateT
				k.Sweep()
			}},
		{name: "readable copy off golden", want: "node1 holds 0x8000 in S with data diverging",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 1, lineX).Data.SetWord(0, initX+1)
				k.Sweep()
			}},
		{name: "L1 without permission", want: "node1 L1 holds 0x8000 without readable, used L2 permission (L2 state I)",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 1, lineX).State = core.StateI
				k.Sweep()
			}},
		{name: "stale memory", want: "memory holds a stale copy of 0x8000 with no dirty owner",
			plant: func(s *sim.System, k *check.Checker) {
				s.Mem.WriteWord(lineX, initX+1)
				k.Sweep()
			}},
		{name: "silent flag on a clean line", want: "node1 frame 0x8000 is flagged temporally silent in S",
			plant: func(s *sim.System, k *check.Checker) {
				frame(s, 1, lineX).Flags |= core.FlagSilent
				k.Sweep()
			}},
		{name: "revalidated flag without permission", want: "node1 frame 0x8000 is flagged revalidated-and-unused in I",
			plant: func(s *sim.System, k *check.Checker) {
				f := frame(s, 1, lineX)
				f.State, f.Flags = core.StateI, f.Flags|core.FlagRevalidated
				k.Sweep()
			}},
		{name: "Read payload off golden", want: "read of 0x8000 granted with a payload that is not the last globally visible value",
			plant: func(s *sim.System, k *check.Checker) {
				k.Serialized(0, &bus.Txn{Type: bus.TxnRead, Addr: lineX})
			}},
		{name: "validate payload off golden", want: "validate of 0x8000 announces",
			plant: func(s *sim.System, k *check.Checker) {
				k.Serialized(0, &bus.Txn{Type: bus.TxnValidate, Addr: lineX})
			}},
		{name: "drain of an empty buffer", want: "node0 drained store 0x8000 but the checker's buffer mirror is empty",
			plant: func(s *sim.System, k *check.Checker) {
				k.StoreDrained(0, lineX, true)
			}},
		{name: "drain out of order", want: "node0 drained store 0x8040 but the mirror head is 0x8000",
			plant: func(s *sim.System, k *check.Checker) {
				k.StoreBuffered(0, lineX, 1, false)
				k.StoreDrained(0, lineY, true)
			}},
		{name: "performed store off its line", want: "node0 performed store 0x8040=8 but its line diverges",
			plant: func(s *sim.System, k *check.Checker) {
				k.StorePerformed(0, lineY, storeY+1)
			}},
		{name: "MSHR leaked", want: "node0 leaks 1 MSHRs at quiesce",
			until: func(s *sim.System) bool { return s.Nodes[0].MSHRsInUse() == 1 },
			plant: func(s *sim.System, k *check.Checker) { k.Quiesce() }},
		{name: "writeback stranded", want: "node0 strands 0x10080 in its writeback buffer at quiesce",
			until: func(s *sim.System) bool {
				return s.Nodes[0].MSHRsInUse() == 0 && s.Nodes[0].WBInfo(lineZ) > 0
			},
			plant: func(s *sim.System, k *check.Checker) { k.Quiesce() }},
		{name: "store left in the mirror", want: "node1 has 1 stores in the checker's buffer mirror at quiesce (head 0x8000)",
			plant: func(s *sim.System, k *check.Checker) {
				k.StoreBuffered(1, lineX, 1, false)
				k.Quiesce()
			}},
		{name: "load past a pending SC", want: "node0 retired a load of 0x8000 past an unresolved store-conditional",
			plant: func(s *sim.System, k *check.Checker) {
				k.StoreBuffered(0, lineX, 1, true)
				retire(s, 0, lineX, 1)
			}},
		{name: "load off its own pending store", want: "node0 retired load pc=0 of 0x8000 with value 6, but its own pending store wrote 5",
			plant: func(s *sim.System, k *check.Checker) {
				k.StoreBuffered(0, lineX, 5, false)
				retire(s, 0, lineX, 6)
			}},
		{name: "load off golden", want: "node1 retired load pc=0 of 0x8000 with value 18, but the globally visible value is 17",
			plant: func(s *sim.System, k *check.Checker) {
				retire(s, 1, lineX, initX+1)
			}},
	} {
		t.Run(row.name, func(t *testing.T) {
			w := detectionWorkload()
			s := sim.New(litmus.MachineConfig(litmus.Variant{}, len(w.Programs)), w)
			if row.until == nil {
				if _, err := s.RunErr(w); err != nil {
					t.Fatalf("the detection run is not clean: %v", err)
				}
			} else {
				for cycle := 0; !row.until(s); cycle++ {
					if cycle == 100_000 {
						t.Fatal("the machine never reached the row's state")
					}
					s.Step()
				}
			}
			k := s.Checker()
			if err := k.Err(); err != nil {
				t.Fatalf("the run was not clean before the plant: %v", err)
			}
			row.plant(s, k)
			if err := k.Err(); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("checker reported %v, want a violation naming %q", err, row.want)
			}
		})
	}
}
