package core

import (
	"maps"
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/mem"
)

// settle ticks node 0 alone — the bus stands still, so a requested
// permission never arrives — until its tick moves nothing, and fails if
// the verdict does not come.
func (h *harness) settle() {
	h.t.Helper()
	for i := 0; i < 4; i++ {
		h.nodes[0].Tick(h.now)
		h.now++
		if h.nodes[0].NextEvent(h.now) == ^uint64(0) {
			return
		}
	}
	h.t.Fatal("controller still not idle after 4 ticks with the bus standing still")
}

// One row per way into the controller: settle to the idle verdict, make
// the call, and require NextEvent to ask for a tick — or, for the three
// refusals, which change nothing the tick reads, to keep the verdict.
func TestIdleVerdictDroppedAtEveryWakeSite(t *testing.T) {
	const la, other = uint64(0x2000), uint64(0x3000)
	// scWaiting leaves a store-conditional, sc, at the head of the buffer
	// with its reservation live and its upgrade requested.
	var sc uint64
	scWaiting := func(h *harness) {
		n := h.nodes[0]
		n.installL2(la, lineOf(0), StateS)
		n.installL2(other, lineOf(0), StateS)
		if r := n.Load(h.seq(), la, true); r.Status != LoadHit || !n.HasReservation(la, anySC) {
			h.t.Fatalf("load-locked: %+v, reservation %v", r, n.HasReservation(la, anySC))
		}
		sc = h.seq()
		if !n.SCExecute(sc, 0, la, 1) {
			h.t.Fatal("SCExecute refused")
		}
	}
	rows := []struct {
		name  string
		setup func(h *harness)
		call  func(h *harness, n *Controller) bool // false: the call did not take the path the row names
		wakes bool
		// after runs once the woken controller has ticked.
		after func(h *harness) string
	}{
		{name: "StoreCommit accepted", wakes: true,
			call: func(h *harness, n *Controller) bool { return n.StoreCommit(h.seq(), 0, la, 1) }},
		{name: "SCExecute accepted", wakes: true,
			call: func(h *harness, n *Controller) bool { return n.SCExecute(h.seq(), 0, la, 1) }},
		{name: "StoreCommit refused, buffer full",
			setup: func(h *harness) {
				for i := 0; i < h.nodes[0].Config().StoreBuf; i++ {
					h.nodes[0].StoreCommit(h.seq(), 0, la, uint64(i))
				}
			},
			call: func(h *harness, n *Controller) bool { return !n.StoreCommit(h.seq(), 0, la, 9) }},
		{name: "Load forwarded from the store buffer", wakes: true,
			setup: func(h *harness) { h.nodes[0].StoreCommit(h.seq(), 0, la, 7) },
			call: func(h *harness, n *Controller) bool {
				r := n.Load(h.seq(), la, false)
				return r.Status == LoadHit && r.Value == 7
			}},
		{name: "Load hits the L1", wakes: true,
			setup: func(h *harness) { h.nodes[0].installL2(la, lineOf(3), StateS); h.nodes[0].fillL1(la) },
			call: func(h *harness, n *Controller) bool {
				return n.Load(h.seq(), la, false) == LoadResult{Status: LoadHit, Value: 3, Lat: L1Latency}
			}},
		{name: "Load hits the L2", wakes: true,
			setup: func(h *harness) { h.nodes[0].installL2(la, lineOf(3), StateS) },
			call: func(h *harness, n *Controller) bool {
				return n.Load(h.seq(), la, false) == LoadResult{Status: LoadHit, Value: 3, Lat: L1Latency + L2Latency}
			}},
		{name: "Load misses", wakes: true,
			call: func(h *harness, n *Controller) bool { return n.Load(h.seq(), la, false).Status == LoadMiss }},
		{name: "Load refused, MSHR file full",
			setup: func(h *harness) { h.fillMSHRs(0) },
			call: func(h *harness, n *Controller) bool {
				return n.Load(h.seq(), la, false) == LoadResult{Status: LoadRetry, Counted: true}
			}},
		{name: "Load refused behind a buffered SC",
			setup: scWaiting,
			call: func(h *harness, n *Controller) bool {
				return n.Load(h.seq(), la, false) == LoadResult{Status: LoadRetry}
			}},
		{
			// The younger load-locked changes no line and no MSHR, and
			// the head it strands must fail on the very next tick.
			name: "LL hit moves the reservation off a waiting SC head", wakes: true,
			setup: scWaiting,
			call: func(h *harness, n *Controller) bool {
				return n.Load(h.seq(), other, true).Status == LoadHit && !n.HasReservation(la, anySC)
			},
			after: func(h *harness) string {
				if ok, done := h.clients[0].scResults[sc]; !done || ok {
					return "the SC that lost its reservation did not fail on the next tick"
				}
				return ""
			},
		},
		{name: "PrefetchExclusive requests a line", wakes: true,
			call: func(h *harness, n *Controller) bool { n.PrefetchExclusive(la); return n.MSHRsInUse() == 1 }},
		{name: "SLECommitStores performs", wakes: true,
			setup: func(h *harness) { h.nodes[0].installL2(la, lineOf(0), StateM) },
			call:  func(h *harness, n *Controller) bool { return n.SLECommitStores([]SpecStore{{Addr: la, Value: 5}}) }},
		{name: "GrantTxn", wakes: true,
			call: func(h *harness, n *Controller) bool { return n.GrantTxn(&bus.Txn{Type: bus.TxnRead, Addr: la}) }},
		{name: "SnoopTxn", wakes: true,
			call: func(h *harness, n *Controller) bool {
				n.SnoopTxn(&bus.Txn{Type: bus.TxnRead, Addr: la, Src: 1})
				return true
			}},
		{name: "CompleteTxn", wakes: true,
			call: func(h *harness, n *Controller) bool {
				n.CompleteTxn(&bus.Txn{Type: bus.TxnWriteback, Addr: la})
				return true
			}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			h := newHarness(t, 2, nil)
			n := h.nodes[0]
			if n.NextEvent(h.now) != h.now {
				t.Fatal("a controller that has never ticked claims to be idle")
			}
			if r.setup != nil {
				r.setup(h)
			}
			h.settle()
			if !r.call(h, n) {
				t.Fatal("the call did not take the path this row is about")
			}
			want := ^uint64(0)
			if r.wakes {
				want = h.now
			}
			if got := n.NextEvent(h.now); got != want {
				t.Fatalf("NextEvent(%d) = %d after the call, want %d", h.now, got, want)
			}
			if r.after != nil {
				n.Tick(h.now)
				if msg := r.after(h); msg != "" {
					t.Fatal(msg)
				}
			}
		})
	}
}

// The controller's audit on the every-cycle loop: a head that becomes
// performable with the verdict standing — here a line made writable
// behind the controller's back, as a wake site that forgot to drop the
// verdict would leave it — is a tick the fast path would have skipped,
// and the oracle says which node, when, and which line.
func TestOracleAuditLocatesControllerVerdictViolation(t *testing.T) {
	const la = uint64(0x2040)
	h := newHarness(t, 2, nil)
	n := h.nodes[1]
	var violation error
	n.SetOracle(&violation)
	n.installL2(la, lineOf(0), StateS)
	n.StoreCommit(h.seq(), 0, la+8, 5)
	for ; h.now < 40; h.now++ {
		n.Tick(h.now) // requests the upgrade, then stalls on it
	}
	if violation != nil || n.NextEvent(h.now) != ^uint64(0) {
		t.Fatalf("before the plant: violation %v, next event %d", violation, n.NextEvent(h.now))
	}
	n.l2.Lookup(la).State = StateM
	n.Tick(h.now)
	if violation == nil {
		t.Fatal("the oracle ticked through a broken verdict without reporting it")
	}
	for _, w := range []string{"node 1 cycle 40: controller idle verdict violated", "addr 0x2048", "line 0x2040"} {
		if !strings.Contains(violation.Error(), w) {
			t.Errorf("violation %q does not name %q", violation, w)
		}
	}
	if !n.StoreBufEmpty() || n.NextEvent(h.now) != h.now {
		t.Error("the audited tick must still perform the store and drop the verdict")
	}
}

// ReplayL1Hits is a hit's controller side: n hits of a line replayed
// leave the node as n loads that hit it do — the l1/hit count, the
// idle verdict dropped, and the line most recently used, so a fill into
// its set evicts the other way.
func TestReplayL1HitsIsTheHitPath(t *testing.T) {
	const a, b, c = uint64(0x1000), uint64(0x1100), uint64(0x1200) // one 2-way L1 set
	var hs [2]*harness
	for i := range hs {
		h := newHarness(t, 1, nil)
		h.loadValue(0, a)
		h.loadValue(0, b) // a is now the set's least recently used
		h.settle()
		hs[i] = h
	}
	for i := 0; i < 3; i++ {
		if r := hs[0].nodes[0].Load(hs[0].seq(), a, false); r.Status != LoadHit {
			t.Fatalf("load of %#x: %+v, want a hit", a, r)
		}
	}
	hs[1].nodes[0].ReplayL1Hits([]uint64{a, a, a})
	for i, h := range hs {
		n := h.nodes[0]
		if n.idle || h.ctrs.Get("l1/hit") != 3 {
			t.Fatalf("side %d: idle %v, l1/hit %d after three hits", i, n.idle, h.ctrs.Get("l1/hit"))
		}
		h.loadValue(0, c)
		if !n.L1Holds(a) || n.L1Holds(b) {
			t.Fatalf("side %d: the fill of %#x evicted %#x, the line just hit (holds a=%v b=%v)", i, c, a, n.L1Holds(a), n.L1Holds(b))
		}
	}
}

// ReplayRefusals is the refusals' controller side: three counted load
// refusals and two refused stores replayed leave the node as the same
// refusals asked for do — the same counters, and the idle verdict
// standing.
func TestReplayRefusalsIsTheRefusalPath(t *testing.T) {
	const la, refused = uint64(0x2000), uint64(0x9000)
	const loads, stores = 3, 2
	var hs [2]*harness
	for i := range hs {
		h := newHarness(t, 1, nil)
		n := h.nodes[0]
		for j := 0; j < n.Config().StoreBuf; j++ {
			n.StoreCommit(h.seq(), 0, la, uint64(j))
		}
		h.settle() // the head has requested its line
		for j := uint64(0); n.Load(h.seq(), 0x8000+j*mem.LineSize, false).Status == LoadMiss; j++ {
		}
		h.settle()
		hs[i] = h
	}
	asked, replayed := hs[0].nodes[0], hs[1].nodes[0]
	for i := 0; i < loads; i++ {
		if r := asked.Load(hs[0].seq(), refused, false); r != (LoadResult{Status: LoadRetry, Counted: true}) {
			t.Fatalf("load of %#x: %+v, want a counted refusal", refused, r)
		}
	}
	for i := 0; i < stores; i++ {
		if asked.StoreCommit(hs[0].seq(), 0, la, 9) {
			t.Fatal("StoreCommit accepted into a full buffer")
		}
	}
	replayed.ReplayRefusals(loads, stores)
	if a, b := hs[0].ctrs.Snapshot(), hs[1].ctrs.Snapshot(); !maps.Equal(a, b) {
		t.Errorf("counters after %d load and %d store refusals:\n asked    %v\n replayed %v", loads, stores, a, b)
	}
	for i, h := range hs {
		if n := h.nodes[0]; !n.idle || n.NextEvent(h.now) != ^uint64(0) {
			t.Errorf("side %d: idle %v, NextEvent %d: a refusal must leave the verdict standing", i, n.idle, n.NextEvent(h.now))
		}
	}
}
