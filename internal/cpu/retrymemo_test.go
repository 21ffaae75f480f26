package cpu

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/stats"
)

// The retry memo (entry.retryVer) is exercised on a core that is not
// idle: a load that never completes heads the window, nLoads ready
// loads behind it ask the memory system every tick, and a dependent
// add chain keeps the issue and complete stages moving, so no tick is
// answered from the idle verdict.
const (
	parkedBase  = 0x1000 // word address of the first parked load
	parkedChain = 120    // cycles the add chain keeps the core live
	parkedWarm  = 45     // cycles until everything is dispatched and parked
)

func parkedAddr(i int) uint64 { return parkedBase + uint64(i)*8 }

func parkedProgram(nLoads int) *isa.Program {
	b := isa.NewBuilder("parked")
	b.Li(isa.R1, 0x200).Ld(isa.R3, isa.R1, 0)
	b.Li(isa.R2, parkedBase)
	for i := 0; i < nLoads; i++ {
		b.Ld(isa.R4, isa.R2, int64(i)*8)
	}
	for i := 0; i < parkedChain; i++ {
		b.Addi(isa.R5, isa.R5, 1)
	}
	b.Halt()
	return b.Build()
}

// parkedCore builds a full-size core over parkedProgram whose head
// load goes async; park scripts what the loads behind it are answered.
func parkedCore(nLoads int, park func(f *fakeMem, addr uint64), violation *error) (*Core, *fakeMem, *stats.Counters) {
	f := newFakeMem()
	f.delayed[0x200] = true
	for i := 0; i < nLoads; i++ {
		park(f, parkedAddr(i))
	}
	ctrs := stats.NewCounters()
	c := New(DefaultConfig(), 0, parkedProgram(nLoads), f, ctrs)
	f.core, f.ctrs = c, ctrs
	if violation != nil {
		c.SetOracle(violation)
	}
	return c, f, ctrs
}

func refuseCounted(f *fakeMem, addr uint64) { f.mshrFull[addr] = true }

func (c *Core) loadAt(addr uint64) *entry {
	for _, e := range c.ruu {
		if e.isLoad && e.addrKnown && e.effAddr == addr {
			return e
		}
	}
	return nil
}

// twins ticks a fast core and its oracle side by side and fails on the
// first tick after which they differ in counters, spin set or clock.
type twins struct {
	t            *testing.T
	fast, oracle *Core
	fMem, oMem   *fakeMem
	fCtr, oCtr   *stats.Counters
	violation    error
	now          uint64
}

func newTwins(t *testing.T, nLoads int, park func(*fakeMem, uint64)) *twins {
	tw := &twins{t: t}
	tw.fast, tw.fMem, tw.fCtr = parkedCore(nLoads, park, nil)
	tw.oracle, tw.oMem, tw.oCtr = parkedCore(nLoads, park, &tw.violation)
	return tw
}

func (tw *twins) tick(n int) {
	tw.t.Helper()
	for i := 0; i < n; i++ {
		tw.fast.Tick(tw.now)
		tw.oracle.Tick(tw.now)
		if f, o := tw.fCtr.Snapshot(), tw.oCtr.Snapshot(); !reflect.DeepEqual(f, o) {
			tw.t.Fatalf("cycle %d: counters diverge:\nfast   %v\noracle %v", tw.now, f, o)
		}
		if tw.fast.spin != tw.oracle.spin {
			tw.t.Fatalf("cycle %d: spin set: fast %+v, oracle %+v", tw.now, tw.fast.spin, tw.oracle.spin)
		}
		if tw.fast.Cycles() != tw.oracle.Cycles() {
			tw.t.Fatalf("cycle %d: clock: fast %d, oracle %d", tw.now, tw.fast.Cycles(), tw.oracle.Cycles())
		}
		tw.now++
	}
}

func (tw *twins) both(fn func(*fakeMem)) { fn(tw.fMem); fn(tw.oMem) }

func TestRetryMemoLiveTickTwins(t *testing.T) {
	const nLoads, k = 8, 40
	tw := newTwins(t, nLoads, refuseCounted)
	tw.tick(parkedWarm)
	before, memoBefore := tw.fCtr.Get("l2/mshr_full"), tw.fast.MemoizedRetries()
	tw.tick(k)
	if tw.violation != nil {
		t.Fatalf("oracle twin: %v", tw.violation)
	}
	if got := tw.fCtr.Get("l2/mshr_full") - before; got != nLoads*k {
		t.Fatalf("l2/mshr_full advanced %d over %d ticks of %d parked loads, want %d", got, k, nLoads, nLoads*k)
	}
	if got := tw.fast.MemoizedRetries() - memoBefore; got != nLoads*k {
		t.Fatalf("fast core memoized %d of %d retries under a standing version", got, nLoads*k)
	}
	if tw.oracle.MemoizedRetries() != 0 {
		t.Fatalf("oracle answered %d retries from the memo", tw.oracle.MemoizedRetries())
	}
	if tw.fast.ReplayedTicks() != 0 {
		t.Fatalf("the core went idle (%d replayed ticks): the memo was not what answered", tw.fast.ReplayedTicks())
	}

	// A new version alone invalidates: every load asks again, is refused
	// again, and is memoized under the new version.
	tw.both(func(f *fakeMem) { f.ver++ })
	memoBefore = tw.fast.MemoizedRetries()
	tw.tick(1)
	if got := tw.fast.MemoizedRetries() - memoBefore; got != 0 {
		t.Fatalf("%d retries answered from a memo of the old version", got)
	}
	tw.tick(1)
	if got := tw.fast.MemoizedRetries() - memoBefore; got != nLoads {
		t.Fatalf("memoized %d retries on the tick after the re-ask, want %d", got, nLoads)
	}

	// The answer changes under a new version: the load issues on the
	// next tick of both twins, the others stay parked.
	freed := parkedAddr(3)
	tw.both(func(f *fakeMem) { delete(f.mshrFull, freed); f.ver++ })
	tw.tick(1)
	for name, c := range map[string]*Core{"fast": tw.fast, "oracle": tw.oracle} {
		if e := c.loadAt(freed); e == nil || !e.issued {
			t.Fatalf("%s: the freed load did not issue on the tick after the version moved", name)
		}
		if e := c.loadAt(parkedAddr(4)); e == nil || e.issued {
			t.Fatalf("%s: a load that is still refused issued", name)
		}
	}
	tw.tick(5)
	if tw.violation != nil {
		t.Fatalf("oracle twin: %v", tw.violation)
	}
}

// A refusal that flips while the version stands breaks the memo's
// contract: the fast core cannot see it, so the oracle must, and must
// say which load on which core.
func TestOracleAuditLocatesRetryMemoViolation(t *testing.T) {
	var violation error
	c, f, _ := parkedCore(8, refuseCounted, &violation)
	now := uint64(0)
	for ; now < parkedWarm; now++ {
		c.Tick(now)
	}
	if violation != nil {
		t.Fatalf("violation before the change: %v", violation)
	}
	addr := parkedAddr(5)
	e := c.loadAt(addr)
	delete(f.mshrFull, addr)
	c.Tick(now)
	if violation == nil {
		t.Fatal("oracle ticked through a flipped refusal without reporting it")
	}
	for _, w := range []string{
		fmt.Sprintf("cpu0 cycle %d:", now), "retry memo (version 0) violated",
		fmt.Sprintf("seq %d ", e.seq), fmt.Sprintf("addr %#x ", addr), "Status:",
	} {
		if !strings.Contains(violation.Error(), w) {
			t.Errorf("violation %q does not name %q", violation, w)
		}
	}
	if !e.issued {
		t.Error("the oracle did not act on what the memory system answered")
	}
}

// An uncounted retry (a buffered SC to the load's word) is never
// memoized: it ends when the SC performs, which needs no new version
// to be honoured on the next tick.
func TestUncountedRetryIsNotMemoized(t *testing.T) {
	tw := newTwins(t, 8, func(f *fakeMem, addr uint64) { f.scBlocked[addr] = true })
	tw.tick(parkedWarm + 10)
	if tw.fast.MemoizedRetries() != 0 {
		t.Fatalf("%d uncounted retries answered from a memo", tw.fast.MemoizedRetries())
	}
	addr := parkedAddr(2)
	tw.both(func(f *fakeMem) { delete(f.scBlocked, addr) })
	tw.tick(1)
	if e := tw.fast.loadAt(addr); e == nil || !e.issued {
		t.Fatal("fast core did not re-ask a load whose uncounted retry ended under the same version")
	}
	if tw.violation != nil {
		t.Fatalf("oracle twin: %v", tw.violation)
	}
}

// BenchmarkIssueRetryStorm measures what one parked load costs the
// issue walk per tick: answered from its memo (version stands) and
// asked again (version moves every tick).
func BenchmarkIssueRetryStorm(b *testing.B) {
	for _, n := range []int{8, 32, 96} {
		for _, mode := range []string{"memo", "reask"} {
			b.Run(fmt.Sprintf("loads=%d/%s", n, mode), func(b *testing.B) {
				c, f, _ := parkedCore(n, refuseCounted, nil)
				for now := uint64(0); now < parkedWarm; now++ {
					c.Tick(now)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if mode == "reask" {
						f.ver++
					}
					c.issue()
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/load")
			})
		}
	}
}
