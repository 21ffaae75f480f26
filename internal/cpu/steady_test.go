package cpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/stats"
)

// spinFlag is the word the spin core polls.
const spinFlag = 0x400

// spinCore builds a core spinning, as a barrier's waiter does, on a
// flag that hits in L1 until it reads 1, then halting; oracle selects
// the full-pipeline twin. The paper's window settles into a tick that
// retires and dispatches eight (four ld/bne pairs) from cycle 25; a
// window of 64 or less never settles, it breathes with the pipeline's
// depth.
func spinCore(violation *error) (*Core, *fakeMem, *stats.Counters) {
	b := isa.NewBuilder("spin")
	b.Li(isa.R1, spinFlag).Li(isa.R2, 1)
	spin := b.Here()
	b.Ld(isa.R3, isa.R1, 0)
	b.Bne(isa.R3, isa.R2, spin)
	b.Halt()
	f := newFakeMem()
	ctrs := stats.NewCounters()
	c := New(DefaultConfig(), 0, b.Build(), f, ctrs)
	f.attach(c, ctrs)
	if violation != nil {
		c.SetOracle(violation)
	}
	return c, f, ctrs
}

// tickUntilSteady ticks the cores from *now until the first one holds
// a steady verdict.
func tickUntilSteady(t *testing.T, now *uint64, cores ...*Core) {
	t.Helper()
	for ; !cores[0].st.on; *now++ {
		if *now > 200 {
			t.Fatalf("no steady verdict by cycle %d", *now)
		}
		for _, c := range cores {
			c.Tick(*now)
		}
	}
}

// pipelineOf renders what a tick reads, entries named by seq.
func pipelineOf(c *Core) string {
	var b strings.Builder
	seq := func(e *entry) uint64 {
		if e == nil {
			return 0
		}
		return e.seq
	}
	fmt.Fprintf(&b, "now=%d nextSeq=%d retired=%d halted=%v fetchPC=%d lsq=%d executing=%d regs=%v\n",
		c.now, c.nextSeq, c.retired, c.halted, c.fetchPC, c.lsqUsed, c.numExecuting, c.regs)
	for _, e := range c.ruu {
		fmt.Fprintf(&b, "seq=%d pc=%d src=%v doneAt=%d result=%d addr=%#x flags=%#x wake=%d next=%d,%d\n",
			e.seq, e.pc, e.src, e.doneAt, e.result, e.effAddr, e.flags(), seq(e.wake), seq(e.next[0]), seq(e.next[1]))
	}
	for _, r := range c.readyQ {
		fmt.Fprintf(&b, "ready seq=%d memo=%d\n", r.seq, r.retryVer)
	}
	for _, r := range c.execQ {
		fmt.Fprintf(&b, "exec seq=%d\n", r.seq)
	}
	for _, s := range c.fetchQ {
		fmt.Fprintf(&b, "fetch %+v\n", s)
	}
	return b.String()
}

// The steady verdict's contract, once per way a verdict ends: k ticks
// of the oracle twin and one formation plus k-1 replays plus catch-up
// must leave the same window, the same counters and the same L1
// recency and clock, and so must the ticks after.
func TestSteadyReplayMatchesNaiveTicks(t *testing.T) {
	const k = 40
	rows := []struct {
		name string
		hear func(*Core, *fakeMem)
	}{
		{"read snoop", func(c *Core, _ *fakeMem) { c.ExternalSnoop(mem.LineAddr(spinFlag), false) }},
		{"StateVersion moved: the flag's line left L1", func(_ *Core, f *fakeMem) { f.ver++; f.delayed[spinFlag] = true }},
		{"post-mortem", func(c *Core, _ *fakeMem) { _ = c.DebugState() }},
		{"flag written, spin left, halt", func(c *Core, f *fakeMem) {
			f.mem.WriteWord(spinFlag, 1)
			c.ExternalSnoop(mem.LineAddr(spinFlag), true)
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var violation error
			naive, nf, nCtrs := spinCore(&violation)
			fast, ff, fCtrs := spinCore(nil)
			var now uint64
			tickUntilSteady(t, &now, fast, naive)
			for end := now + k - 1; now < end; now++ {
				naive.Tick(now)
				fast.Tick(now)
			}
			if !naive.st.on || naive.SteadyTicks() != 0 || fast.SteadyTicks() != k-1 {
				t.Fatalf("oracle holds the verdict: %v, replayed %d ticks; fast side replayed %d, want %d",
					naive.st.on, naive.SteadyTicks(), fast.SteadyTicks(), k-1)
			}
			compare := func(when string) {
				t.Helper()
				if violation != nil {
					t.Fatalf("oracle twin: %v", violation)
				}
				fast.catchUp() // a verdict formed since stands
				if n, f := pipelineOf(naive), pipelineOf(fast); n != f {
					t.Fatalf("%s: windows diverge\nnaive:\n%s\nfast:\n%s", when, n, f)
				}
				if n, f := nCtrs.Snapshot(), fCtrs.Snapshot(); !reflect.DeepEqual(n, f) {
					t.Fatalf("%s: counters diverge:\nnaive %v\nfast  %v", when, n, f)
				}
				if nf.clock != ff.clock || !reflect.DeepEqual(nf.lru, ff.lru) {
					t.Fatalf("%s: L1 recency diverges: naive clock %d %v, fast clock %d %v", when, nf.clock, nf.lru, ff.clock, ff.lru)
				}
			}
			r.hear(naive, nf)
			r.hear(fast, ff)
			naive.Tick(now)
			fast.Tick(now)
			now++
			compare("the tick after")
			for end := now + 100; now < end && !naive.Halted(); now++ {
				naive.Tick(now)
				fast.Tick(now)
			}
			compare("100 ticks later")
		})
	}
}

// The oracle's audit of the steady verdict: a tick that does not repeat
// the one that formed it, here because the formed counter deltas were
// planted wrong, is named with the cycle, the verdict and what moved.
func TestOracleAuditLocatesSteadyViolation(t *testing.T) {
	var violation error
	c, _, _ := spinCore(&violation)
	var now uint64
	tickUntilSteady(t, &now, c)
	if violation != nil {
		t.Fatalf("violation before the plant: %v", violation)
	}
	c.st.last.moved[0].N++
	c.Tick(now)
	if violation == nil {
		t.Fatal("oracle ticked through a wrong verdict without reporting it")
	}
	want := fmt.Sprintf("cpu0 cycle %d: steady verdict (Δseq %d, since cycle %d) violated: retired 8, dispatched 8,", now, c.st.dseq, c.st.since)
	if !strings.HasPrefix(violation.Error(), want) || !strings.Contains(violation.Error(), "l1/hit+") {
		t.Fatalf("violation %q, want it to start %q and name the counters", violation, want)
	}
}

// BenchmarkSteadySpinTick is one tick of a core spinning on an L1-hit
// flag with its steady verdict standing and the paper's full window:
// the counters, retirements and hits of the tick that formed it,
// replayed. It must read 0 B/op.
func BenchmarkSteadySpinTick(b *testing.B) {
	c, _, _ := spinCore(nil)
	var now uint64
	for ; !c.st.on; now++ {
		if now > 200 {
			b.Fatal("no steady verdict")
		}
		c.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Tick(now)
		now++
	}
	b.StopTimer()
	if !c.st.on || c.SteadyTicks() != uint64(b.N) {
		b.Fatalf("the verdict fell after %d of %d ticks", c.SteadyTicks(), b.N)
	}
}
