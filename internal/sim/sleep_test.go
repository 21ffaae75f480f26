package sim

import (
	"fmt"
	"reflect"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/core"
	"tssim/internal/isa"
	"tssim/internal/mem"
)

// sleepWorkload keeps CPU 0 and its controller asleep through a second
// cold miss, behind a first that left line 0x7000 in the L1 in E: the
// load of 0x8000 (seq 5) takes its address from the value of 0x7000's,
// so it issues only once that one has filled. CPU 1 halts at once.
func sleepWorkload() (Workload, Config) {
	b := isa.NewBuilder("sleep")
	b.Li(isa.R10, 0x7000)
	b.Li(isa.R14, 0x8000)
	b.Ld(isa.R11, isa.R10, 0)
	b.Add(isa.R12, isa.R11, isa.R14)
	b.Ld(isa.R13, isa.R12, 0)
	b.Add(isa.R15, isa.R13, isa.R13)
	b.Halt()
	cfg := fastCfg(Techniques{MESTI: true})
	cfg.CPUs = 2
	return singleCPUWorkload("sleep", b.Build(), 2), cfg
}

// storeStallWorkload puts CPU 0 to sleep behind a one-entry store buffer
// whose head waits for its line: the second store is refused until the
// first performs, which moves node 0's StateVersion and calls nothing
// back. CPU 1 halts at once.
func storeStallWorkload() (Workload, Config) {
	b := isa.NewBuilder("store-stall")
	b.Li(isa.R10, 0x7000)
	b.Li(isa.R11, 1)
	b.St(isa.R11, isa.R10, 0)
	b.St(isa.R11, isa.R10, 8)
	b.Halt()
	cfg := fastCfg(Techniques{MESTI: true})
	cfg.CPUs = 2
	cfg.Node.StoreBuf = 1
	return singleCPUWorkload("store-stall", b.Build(), 2), cfg
}

// wakePhase is where in a cycle a wake-site row makes its call: after
// the fabric's tick (where snoops, grants and completions arrive) or
// after the node phase (where a core calls its controller).
type wakePhase int

const (
	busPhase wakePhase = iota
	corePhase
)

func (p wakePhase) String() string { return [...]string{"bus phase", "core phase"}[p] }

// stepCalling runs one cycle of s as Step does, phase by phase, never
// skipping (a skip would pass the cycle a row calls at), making call
// (when not nil) at phase p.
func stepCalling(s *System, p wakePhase, call func(*System)) {
	now := s.now
	s.Bus.Tick(now)
	if call != nil && p == busPhase {
		call(s)
	}
	s.nodePhase(now)
	if call != nil && p == corePhase {
		call(s)
	}
	s.corePhase(now)
	s.dozePhase()
	s.now = now + 1
}

// sleepTwin is one machine of a wake-site row and what it did: the
// cycle of each retirement of each core, and at the call core 0's clock
// (the cycle LoadDone and SCDone stamp) and what core 0 and node 0
// replayed.
type sleepTwin struct {
	s                 *System
	retiredAt         [][]uint64
	clock             uint64
	replayed, skipped uint64
}

func (tw *sleepTwin) step(p wakePhase, call func(*System)) {
	before := make([]uint64, len(tw.s.Cores))
	for i, c := range tw.s.Cores {
		before[i] = c.Retired()
	}
	stepCalling(tw.s, p, call)
	for i, c := range tw.s.Cores {
		if c.Retired() != before[i] {
			tw.retiredAt[i] = append(tw.retiredAt[i], tw.s.now-1)
		}
	}
}

// TestSleeperWokenAtEveryWakeSite drives one way into a sleeping core
// or controller per row, in the bus phase and in the core phase, on the
// fast path and on the every-cycle oracle, and requires the two to
// agree: the call's wake replays the ticks slept through (core 0's
// ReplayedTicks or node 0's SkippedTicks move at the call), core 0's
// clock right after it, the cycle of every retirement, and after the
// machine drains every counter and histogram. A wake left out of a way
// in fails its row: the sleeper answers the call with a stale clock, and
// replays its sleep later under the occupancy the call left.
func TestSleeperWokenAtEveryWakeSite(t *testing.T) {
	const (
		inject = 110 // core 0 and node 0 asleep since cycle 74, the miss of 0x8000 outstanding until 131
		seq    = 5   // that miss's load
		fake   = 1 << 40
		la     = 0x7000 // in node 0's L1, in E
		other  = 0x9000 // in no cache
	)
	type who int
	const (
		cpu0 who = 1 << iota
		node0
	)
	var filled mem.Line
	filled.SetWord(0, 7)
	rows := []struct {
		name  string
		call  func(s *System) // nil: the row's wake is the machine's own
		wakes who             // what the call itself must find asleep and wake
		w     func() (Workload, Config)
	}{
		// core.Client callbacks.
		{name: "LoadDone", call: func(s *System) { s.Cores[0].LoadDone(seq, 3) }, wakes: cpu0},
		{name: "LoadsVerified", call: func(s *System) { s.Cores[0].LoadsVerified([]uint64{seq}) }, wakes: cpu0},
		{name: "SquashSpec", call: func(s *System) { s.Cores[0].SquashSpec([]uint64{seq}) }, wakes: cpu0},
		{name: "SCDone", call: func(s *System) { s.Cores[0].SCDone(seq, true) }, wakes: cpu0},
		{name: "ExternalSnoop", call: func(s *System) { s.Cores[0].ExternalSnoop(0x8000, true) }, wakes: cpu0},
		// The head store performing moves the version under core 0, which
		// sleeps on the refused second store until its next Doze sees it.
		{name: "StateVersion moves", w: storeStallWorkload},
		// The first fetch group reaches dispatch PipeDepth cycles after
		// cycle 0, and the core sleeps until then.
		{name: "timer"},
		// Every way into a controller.
		{name: "Load", call: func(s *System) { s.Nodes[0].Load(fake, other, false) }, wakes: node0},
		{name: "ReplayL1Hits", call: func(s *System) { s.Nodes[0].ReplayL1Hits([]uint64{la}) }, wakes: node0},
		{name: "StoreCommit", call: func(s *System) { s.Nodes[0].StoreCommit(fake, 0, la, 9) }, wakes: node0},
		{name: "SCExecute", call: func(s *System) { s.Nodes[0].SCExecute(fake, 0, la, 1) }, wakes: node0},
		{name: "PrefetchExclusive", call: func(s *System) { s.Nodes[0].PrefetchExclusive(la) }, wakes: node0},
		{name: "SLECommitStores", call: func(s *System) { s.Nodes[0].SLECommitStores([]core.SpecStore{{Addr: la, Value: 5}}) }, wakes: node0},
		{name: "GrantTxn", call: func(s *System) { s.Nodes[0].GrantTxn(&bus.Txn{Type: bus.TxnRead, Addr: other}) }, wakes: node0},
		{name: "SnoopTxn", call: func(s *System) { s.Nodes[0].SnoopTxn(&bus.Txn{Type: bus.TxnReadX, Addr: la, Src: 1}) }, wakes: node0 | cpu0},
		{name: "CompleteTxn", call: func(s *System) {
			s.Nodes[0].CompleteTxn(&bus.Txn{Type: bus.TxnRead, Addr: 0x8000, HasData: true, Data: filled})
		}, wakes: node0 | cpu0},
	}
	for _, r := range rows {
		if r.w == nil {
			r.w = sleepWorkload
		}
		w, cfg := r.w()
		for _, p := range []wakePhase{busPhase, corePhase} {
			t.Run(fmt.Sprintf("%s/%s", r.name, p), func(t *testing.T) {
				var twins [2]*sleepTwin
				for i := range twins {
					c := cfg
					c.NoFastForward = i == 1
					tw := &sleepTwin{s: New(c, w), retiredAt: make([][]uint64, c.CPUs)}
					for tw.s.now < inject {
						tw.step(p, nil)
					}
					replayed, skipped := tw.s.Cores[0].ReplayedTicks(), tw.s.Nodes[0].SkippedTicks()
					tw.step(p, func(s *System) {
						if r.call != nil {
							r.call(s)
						}
						tw.clock = s.Cores[0].Cycles()
						tw.replayed = s.Cores[0].ReplayedTicks() - replayed
						tw.skipped = s.Nodes[0].SkippedTicks() - skipped
					})
					for tw.s.now < inject+400 {
						tw.step(p, nil)
					}
					if !tw.s.drained() {
						t.Fatalf("noFF=%v: the machine has not drained by cycle %d", c.NoFastForward, tw.s.now)
					}
					tw.s.wakeAll()
					twins[i] = tw
				}
				fast, oracle := twins[0], twins[1]
				if oracle.replayed != 0 || oracle.skipped != 0 {
					t.Fatalf("the oracle replayed %d core and %d controller ticks", oracle.replayed, oracle.skipped)
				}
				if r.wakes&cpu0 != 0 && fast.replayed == 0 {
					t.Errorf("core 0 replayed nothing at the call: it was not asleep, or the call did not wake it")
				}
				if r.wakes&node0 != 0 && fast.skipped == 0 {
					t.Errorf("node 0 replayed nothing at the call: it was not asleep, or the call did not wake it")
				}
				if r.wakes&cpu0 != 0 && fast.clock != oracle.clock {
					t.Errorf("core 0's clock after the call: %d, the oracle's %d", fast.clock, oracle.clock)
				}
				if !reflect.DeepEqual(fast.retiredAt, oracle.retiredAt) {
					t.Errorf("retirement cycles diverge:\nfast   %v\noracle %v", fast.retiredAt, oracle.retiredAt)
				}
				if f, o := fast.s.Counters.Snapshot(), oracle.s.Counters.Snapshot(); !reflect.DeepEqual(f, o) {
					t.Errorf("counters diverge:\nfast   %v\noracle %v", f, o)
				}
				if f, o := fast.s.Counters.HistSnapshots(), oracle.s.Counters.HistSnapshots(); !reflect.DeepEqual(f, o) {
					t.Errorf("histograms diverge:\nfast   %v\noracle %v", f, o)
				}
			})
		}
	}
}

// sleepState is what a sleep decision writes: the awake sets, the
// cores' horizons and every component's replay counts.
type sleepState struct {
	coreAwake, nodeAwake uint64
	wakeAt               []uint64
	replayed, skipped    []uint64
}

func sleepStateOf(s *System) sleepState {
	st := sleepState{coreAwake: s.coreAwake, nodeAwake: s.nodeAwake, wakeAt: append([]uint64(nil), s.wakeAt...)}
	for i := range s.Cores {
		st.replayed = append(st.replayed, s.Cores[i].ReplayedTicks())
		st.skipped = append(st.skipped, s.Nodes[i].SkippedTicks())
	}
	return st
}

// runAskingTwice is the run loop with every nextEvent asked a second
// time first, its answer dropped.
func runAskingTwice(s *System) Result {
	for !s.drained() && s.now < s.cfg.MaxCycles {
		s.nextEvent()
		if nxt := s.nextEvent(); nxt > s.now {
			s.skipTo(min(nxt, s.cfg.MaxCycles))
			continue
		}
		s.Step()
	}
	s.wakeAll()
	res := Result{Cycles: s.now, Counters: s.Counters.Snapshot(), Hists: s.Counters.HistSnapshots(), SkippedCycles: s.skipped}
	for _, c := range s.Cores {
		res.PerCPU = append(res.PerCPU, c.Retired())
		res.Retired += c.Retired()
	}
	return res
}

// TestNextEventIsARead requires that nextEvent put no component to
// sleep: Step does that where each verdict forms. Right after the tick
// that forms core 0's idle verdict, three calls change neither the
// awake sets, the horizons nor any replay count; and a run whose loop
// asks twice a cycle gives the run loop's result.
func TestNextEventIsARead(t *testing.T) {
	w, cfg := sleepWorkload()
	s := New(cfg, w)
	for s.Cores[0].NextEvent(s.now) <= s.now {
		if s.now > 1000 {
			t.Fatal("core 0 formed no idle verdict by cycle 1000")
		}
		s.Step()
	}
	before := sleepStateOf(s)
	var answers [3]uint64
	for i := range answers {
		answers[i] = s.nextEvent()
	}
	if after := sleepStateOf(s); !reflect.DeepEqual(after, before) {
		t.Errorf("cycle %d: nextEvent wrote sleep state:\nbefore %+v\nafter  %+v", s.now, before, after)
	}
	if answers[1] != answers[0] || answers[2] != answers[0] {
		t.Errorf("cycle %d: nextEvent answered %v", s.now, answers)
	}

	for _, c := range []struct {
		name string
		w    Workload
		cfg  Config
	}{
		{"sleep", w, cfg},
		{"lock counter", lockCounterWorkload(4, 20, 30, false), fastCfg(Techniques{MESTI: true})},
	} {
		want, err := New(c.cfg, c.w).RunErr(c.w)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		got := runAskingTwice(New(c.cfg, c.w))
		if want.SkippedCycles == 0 {
			t.Errorf("%s: the run loop skipped nothing, so the twin checks no skip", c.name)
		}
		if got.Cycles != want.Cycles || got.Retired != want.Retired || got.SkippedCycles != want.SkippedCycles ||
			!reflect.DeepEqual(got.PerCPU, want.PerCPU) || !reflect.DeepEqual(got.Counters, want.Counters) ||
			!reflect.DeepEqual(got.Hists, want.Hists) {
			t.Errorf("%s: asking twice a cycle ran %d cycles (%d skipped), retired %v; the run loop %d (%d), %v",
				c.name, got.Cycles, got.SkippedCycles, got.PerCPU, want.Cycles, want.SkippedCycles, want.PerCPU)
		}
	}
}
