package core

import "testing"

// BenchmarkControllerLoadRefused is the cost of one counted LoadRetry
// on a real controller — store-buffer scan, L1 and L2 lookups, MSHR
// lookup, Alloc on the full file — which is what the core's retry memo
// (cpu.readyRef.retryVer) avoids paying per parked load per cycle.
func BenchmarkControllerLoadRefused(b *testing.B) {
	h := newHarness(b, 1, func(_ int, c *nodeCfg) { c.MSHRs = 8 })
	n := h.nodes[0]
	h.fillMSHRs(0)
	refused := LoadResult{Status: LoadRetry, Counted: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := n.Load(1000, 0x2000, false); r != refused {
			b.Fatalf("load with the MSHR file full: %+v", r)
		}
	}
}

// BenchmarkControllerTickStalled is one tick of a controller whose
// store-buffer head waits for permission behind a full MSHR file, with
// its idle verdict standing: the tick samples occupancy and returns,
// where the retry it answers (tryPerformHead's lookups, the MSHR lookup
// and the failed Alloc) would repeat the tick that set the verdict.
func BenchmarkControllerTickStalled(b *testing.B) {
	h := newHarness(b, 1, nil)
	n := h.nodes[0]
	h.fillMSHRs(0)
	if !n.StoreCommit(h.seq(), 0, 0x2000, 1) {
		b.Fatal("StoreCommit refused")
	}
	n.Tick(h.now)
	if n.NextEvent(h.now+1) != ^uint64(0) {
		b.Fatal("the stalled head did not leave the idle verdict")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.now++
		n.Tick(h.now)
	}
	b.StopTimer()
	if n.StoreBufEmpty() || n.NextEvent(h.now) != ^uint64(0) {
		b.Fatal("the head moved with nothing calling in")
	}
}

// BenchmarkLoadReplayedOntoMiss is a snoop replay against an outstanding
// miss: per op, the load waiting on the miss is squashed (Squashed) and
// re-issued, missing onto the same MSHR. The waiter list holds one live
// load throughout, so B/op is 0; a list that kept the squashed waiters
// would grow with b.N.
func BenchmarkLoadReplayedOntoMiss(b *testing.B) {
	h := newHarness(b, 1, nil)
	n := h.nodes[0]
	const addr = 0x2000
	seq := h.seq()
	if r := n.Load(seq, addr, false); r.Status != LoadMiss {
		b.Fatalf("first load: %+v, want a miss", r)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Squashed(seq - 1)
		seq = h.seq()
		if r := n.Load(seq, addr, false); r.Status != LoadMiss {
			b.Fatalf("re-issue: %+v, want a miss onto the outstanding MSHR", r)
		}
	}
	b.StopTimer()
	if w := len(n.mshrs.Lookup(addr).Waiters); w != 1 {
		b.Fatalf("%d waiters after %d replays, want 1", w, b.N)
	}
}
