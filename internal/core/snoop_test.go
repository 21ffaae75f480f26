package core

import (
	"testing"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/mem"
)

// Direct SnoopTxn unit tests for the VS/T transition matrix (§2.3):
// the E-MESTI distributed-prediction behaviours are asserted here at
// the protocol-action level, independent of timing, so a refactor of
// the snoop path cannot silently change a transition the litmus and
// workload tests only exercise probabilistically.

// snoopHarness builds one MESTI or E-MESTI node with a line planted in
// the given state.
func snoopHarness(t *testing.T, emesti bool, st State, data mem.Line) (*harness, *Controller, uint64) {
	h := newHarness(t, 1, func(i int, c *nodeCfg) {
		c.MESTI = true
		c.EMESTI = emesti
	})
	n := h.nodes[0]
	la := uint64(0x2000)
	n.installL2(la, data, st)
	return h, n, la
}

func lineOf(words ...uint64) mem.Line {
	var l mem.Line
	for i, w := range words {
		l.SetWord(i, w)
	}
	return l
}

func (h *harness) counter(name string) uint64 { return h.ctrs.Snapshot()[name] }

// A VS holder must assert shared on a remote Read — the requester may
// not install E while a valid copy exists — and keep its VS copy.
func TestSnoopVSAssertsSharedOnRead(t *testing.T) {
	h, n, la := snoopHarness(t, true, StateVS, lineOf(7))
	reply := n.SnoopTxn(&bus.Txn{Type: bus.TxnRead, Addr: la})
	if !reply.Shared {
		t.Fatal("VS holder did not assert shared on a remote Read")
	}
	if got := n.LineState(la); got != StateVS {
		t.Fatalf("VS holder moved to %s on a remote Read", StateName(got))
	}
	if h.counter("emesti/vs_silent_snoop") != 0 {
		t.Fatal("Read miscounted as a silent VS snoop")
	}
}

// A VS holder snooping a remote write withholds the shared/useful
// response — the distributed signal that the writer's validates are
// going to waste — and falls to T.
func TestSnoopVSSilentOnRemoteWrite(t *testing.T) {
	for _, txn := range []bus.TxnType{bus.TxnReadX, bus.TxnUpgrade} {
		h, n, la := snoopHarness(t, true, StateVS, lineOf(7))
		reply := n.SnoopTxn(&bus.Txn{Type: txn, Addr: la})
		if reply.Shared || reply.Data != nil {
			t.Fatalf("VS holder responded to a remote %s (shared=%v data=%v)", txn, reply.Shared, reply.Data != nil)
		}
		if got := n.LineState(la); got != StateT {
			t.Fatalf("VS holder in %s after remote %s, want T", StateName(got), txn)
		}
		if h.counter("emesti/vs_silent_snoop") != 1 {
			t.Fatalf("silent VS snoop not counted for %s", txn)
		}
	}
}

// A T holder snooping another invalidation keeps its single saved
// candidate (re-invalidation is counted, not destructive).
func TestSnoopTReinvalidated(t *testing.T) {
	h, n, la := snoopHarness(t, false, StateT, lineOf(7))
	reply := n.SnoopTxn(&bus.Txn{Type: bus.TxnReadX, Addr: la})
	if reply.Shared || reply.Data != nil {
		t.Fatal("T holder responded to a remote write")
	}
	if got := n.LineState(la); got != StateT {
		t.Fatalf("T holder in %s after re-invalidation, want T", StateName(got))
	}
	if h.counter("mesti/t_reinvalidated") != 1 {
		t.Fatal("re-invalidation not counted")
	}
	if d, _ := n.LineData(la); d.Word(0) != 7 {
		t.Fatal("re-invalidation destroyed the reversion candidate")
	}
}

// A remote Read does not invalidate a T copy: reads don't change the
// globally visible value, so the candidate stays live.
func TestSnoopTSurvivesRemoteRead(t *testing.T) {
	_, n, la := snoopHarness(t, false, StateT, lineOf(7))
	reply := n.SnoopTxn(&bus.Txn{Type: bus.TxnRead, Addr: la})
	if reply.Shared {
		t.Fatal("T holder asserted shared (it has no permission)")
	}
	if got := n.LineState(la); got != StateT {
		t.Fatalf("T holder in %s after remote Read, want T", StateName(got))
	}
}

// A validate whose payload matches the saved candidate revalidates it:
// to S under plain MESTI, to VS (validated-but-unused) under E-MESTI.
func TestSnoopValidateMatchRevalidates(t *testing.T) {
	for _, tc := range []struct {
		emesti bool
		want   State
	}{{false, StateS}, {true, StateVS}} {
		h, n, la := snoopHarness(t, tc.emesti, StateT, lineOf(7))
		n.SnoopTxn(&bus.Txn{Type: bus.TxnValidate, Addr: la, WData: lineOf(7)})
		if got := n.LineState(la); got != tc.want {
			t.Fatalf("emesti=%v: validate match moved T to %s, want %s",
				tc.emesti, StateName(got), StateName(tc.want))
		}
		if h.counter("mesti/revalidate") != 1 {
			t.Fatalf("emesti=%v: revalidate not counted", tc.emesti)
		}
	}
}

// A validate whose payload differs from the candidate — the candidate
// belongs to an older visibility epoch — must invalidate, never
// resurrect the stale value.
func TestSnoopValidateMismatchInvalidates(t *testing.T) {
	h, n, la := snoopHarness(t, true, StateT, lineOf(7))
	n.SnoopTxn(&bus.Txn{Type: bus.TxnValidate, Addr: la, WData: lineOf(8)})
	if got := n.LineState(la); got != StateI {
		t.Fatalf("validate mismatch left the line in %s, want I", StateName(got))
	}
	if h.counter("mesti/validate_mismatch") != 1 {
		t.Fatal("validate mismatch not counted")
	}
	if h.counter("mesti/revalidate") != 0 {
		t.Fatal("mismatch counted as a revalidate")
	}
}

// --- Upgrade-stolen window (CompleteTxn) ---

// An upgrade whose line was stolen between grant and completion, with
// loads attached to its MSHR in the window, must refetch exclusively:
// the MSHR survives (exactly one), the stolen-refetch counter fires,
// and the waiting load completes with the refetched data. The refetch
// keys on a load having merged, not on one still waiting: when a squash
// has killed the only one before the completion, the refetch happens all
// the same and answers nobody.
func TestUpgradeStolenRefetches(t *testing.T) {
	for _, squashed := range []bool{false, true} {
		name := "live waiter"
		if squashed {
			name = "the only merged load squashed"
		}
		t.Run(name, func(t *testing.T) {
			h := newHarness(t, 2, nil)
			n := h.nodes[0]
			la := uint64(0x2000)
			h.mem.WriteWord(la+8, 99)

			// Upgrade in flight: granted (line M, store performed), MSHR live.
			n.installL2(la, lineOf(1, 2), StateM)
			m := n.mshrs.Alloc(la, true)
			// The steal: a remote ReadX snoop in the grant->completion window.
			n.SnoopTxn(&bus.Txn{Type: bus.TxnReadX, Addr: la})
			if st := n.LineState(la); Readable(st) {
				t.Fatalf("line still readable (%s) after the steal", StateName(st))
			}
			// A load misses onto the stolen line inside the window.
			seq := h.seq()
			if r := n.Load(seq, la+8, false); r.Status == LoadHit {
				t.Fatal("probe load hit a stolen line")
			}
			if len(m.Waiters) != 1 {
				t.Fatalf("probe load attached %d waiters, want 1", len(m.Waiters))
			}
			if squashed {
				n.Squashed(seq - 1)
				if len(m.Waiters) != 0 {
					t.Fatalf("the squashed load still waits (%d waiters)", len(m.Waiters))
				}
			}

			// The upgrade's completion arrives: unreadable line + a merged
			// load must trigger an exclusive refetch, not a silent free or
			// double serve.
			n.CompleteTxn(&bus.Txn{Type: bus.TxnUpgrade, Addr: la})
			if got := h.counter("coherence/upgrade_stolen_refetch"); got != 1 {
				t.Fatalf("stolen-refetch counter = %d, want 1", got)
			}
			if n.MSHRsInUse() != 1 {
				t.Fatalf("MSHR count after refetch request = %d, want 1 (still live)", n.MSHRsInUse())
			}
			h.drain()
			v, ok := h.clients[0].loadsDone[seq]
			switch {
			case squashed && ok:
				t.Fatalf("the refetch answered squashed seq %d", seq)
			case !squashed && !ok:
				t.Fatal("waiting load never completed after the refetch")
			case !squashed && v != 99:
				t.Fatalf("refetched load value = %d, want 99", v)
			}
			if n.MSHRsInUse() != 0 {
				t.Fatalf("MSHRs leak after refetch completion: %d in use", n.MSHRsInUse())
			}
			if st := n.LineState(la); st != StateM {
				t.Fatalf("refetch installed %s, want M", StateName(st))
			}
		})
	}
}

// An upgrade completing while its line is (somehow) readable again
// serves the attached waiters straight from the live line: plain loads
// get LoadDone once, GotSpec loads with correct predictions get
// verified (no squash), and the MSHR is freed exactly once.
func TestUpgradeStolenServedFromLiveLine(t *testing.T) {
	h := newHarness(t, 1, nil)
	n := h.nodes[0]
	cl := h.clients[0]
	la := uint64(0x2000)

	n.installL2(la, lineOf(10, 20, 30), StateS)
	m := n.mshrs.Alloc(la, true)
	plain, spec := h.seq(), h.seq()
	m.Merge(cache.Waiter{Seq: plain, WordIdx: 1}, false)
	m.Merge(cache.Waiter{Seq: spec, WordIdx: 2, GotSpec: true}, false)
	m.RecordSpec(2, spec, 30) // correct prediction

	n.CompleteTxn(&bus.Txn{Type: bus.TxnUpgrade, Addr: la})

	if v, ok := cl.loadsDone[plain]; !ok || v != 20 {
		t.Fatalf("plain waiter: done=%v value=%d, want 20", ok, v)
	}
	if _, double := cl.loadsDone[spec]; double {
		t.Fatal("GotSpec waiter was double-served with LoadDone")
	}
	if !cl.verified[spec] {
		t.Fatal("correctly speculated waiter was not verified")
	}
	if len(cl.squashes) != 0 {
		t.Fatalf("spurious squash of %v", cl.squashes)
	}
	if n.MSHRsInUse() != 0 {
		t.Fatalf("MSHR not freed: %d in use", n.MSHRsInUse())
	}
	if got := h.counter("coherence/upgrade_stolen_refetch"); got != 0 {
		t.Fatalf("live-line serve miscounted as refetch (%d)", got)
	}
	if !h.bus.Idle() {
		t.Fatal("live-line serve issued a spurious bus transaction")
	}
}

// An Upgrade queued from S whose copy a remote write invalidates to T
// and a validate revives to VS before the grant still holds current
// data: at the grant the VS copy is used (to S, as a store's request
// and an SLE prefetch use it) and the Upgrade stands. Converting it to
// a ReadX would pay a data transfer for a current copy, leave the use
// uncounted and make E-MESTI time differently from MESTI with no
// validate suppressed.
func TestUpgradeGrantUsesVS(t *testing.T) {
	h, n, la := snoopHarness(t, true, StateS, lineOf(7))
	n.StoreCommit(h.seq(), 0, la, 9)
	h.tick(1)
	if h.bus.Idle() || n.LineState(la) != StateS {
		t.Fatalf("after one tick: bus idle %v, line %s; want an Upgrade queued from S", h.bus.Idle(), StateName(n.LineState(la)))
	}
	n.SnoopTxn(&bus.Txn{Type: bus.TxnReadX, Addr: la})
	n.SnoopTxn(&bus.Txn{Type: bus.TxnValidate, Addr: la, WData: lineOf(7)})
	if st := n.LineState(la); st != StateVS {
		t.Fatalf("invalidated and revalidated before the grant: line %s, want VS", StateName(st))
	}
	h.drain()
	if got := h.counter("coherence/upgrade_converted"); got != 0 {
		t.Errorf("the Upgrade was converted to a ReadX (%d)", got)
	}
	if got := h.counter("emesti/vs_use"); got != 1 {
		t.Errorf("emesti/vs_use = %d, want 1: the grant is a use of the VS copy", got)
	}
	if d, _ := n.LineData(la); n.LineState(la) != StateM || d.Word(0) != 9 {
		t.Errorf("after the grant: line %s holding %d, want M holding 9", StateName(n.LineState(la)), d.Word(0))
	}
}

// --- StateVersion: the key of the core's retry memo ---

// What the core was last answered — here a load with the MSHR file full,
// and HoldsWritable — may change only under a new StateVersion: the core
// does not ask again while the version stands, and ExternalSnoop tells
// it that a snoop happened, not what it did. Snoops that leave both
// answers standing need not move the version. One that flips an answer
// has touched the line, so the seam's log no longer vouches for a
// refusal given before it.
func TestRefusalFlipsOnlyUnderNewStateVersion(t *testing.T) {
	type answer struct {
		load     LoadResult
		writable bool
	}
	refused := LoadResult{Status: LoadRetry, Counted: true}
	hit := LoadResult{Status: LoadHit, Value: 7, Lat: L1Latency + L2Latency}
	rows := []struct {
		name   string
		emesti bool
		from   State
		snoop  bus.Txn
		before answer
		after  answer
	}{
		{name: "remote read of a T copy", from: StateT,
			snoop: bus.Txn{Type: bus.TxnRead}, before: answer{load: refused}, after: answer{load: refused}},
		{name: "remote write of a T copy", from: StateT,
			snoop: bus.Txn{Type: bus.TxnReadX}, before: answer{load: refused}, after: answer{load: refused}},
		{name: "validate restores S", from: StateT,
			snoop: bus.Txn{Type: bus.TxnValidate, WData: lineOf(7)}, before: answer{load: refused}, after: answer{load: hit}},
		{name: "validate restores VS", emesti: true, from: StateT,
			snoop: bus.Txn{Type: bus.TxnValidate, WData: lineOf(7)}, before: answer{load: refused}, after: answer{load: hit}},
		{name: "snooped invalidation of S", from: StateS,
			snoop: bus.Txn{Type: bus.TxnUpgrade}, before: answer{load: hit}, after: answer{load: refused}},
		{name: "snooped invalidation of M", from: StateM,
			snoop: bus.Txn{Type: bus.TxnReadX}, before: answer{load: hit, writable: true}, after: answer{load: refused}},
		{name: "snooped downgrade of M to O", from: StateM,
			snoop: bus.Txn{Type: bus.TxnRead}, before: answer{load: hit, writable: true}, after: answer{load: hit}},
		{name: "snooped downgrade of E to S", from: StateE,
			snoop: bus.Txn{Type: bus.TxnRead}, before: answer{load: hit, writable: true}, after: answer{load: hit}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			h, n, la := snoopHarness(t, r.emesti, r.from, lineOf(7))
			h.fillMSHRs(0)
			ask := func() answer {
				n.l1.Drop(la) // every hit at L2 latency
				return answer{load: n.Load(h.seq(), la, false), writable: n.HoldsWritable(la)}
			}
			if got := ask(); got != r.before {
				t.Fatalf("before the snoop: %+v, want %+v", got, r.before)
			}
			ver := *n.StateVersionWord() // after asking: the first hit of a VS line is itself a transition
			r.snoop.Addr, r.snoop.Src = la, 1
			n.SnoopTxn(&r.snoop)
			moved := *n.StateVersionWord() != ver
			if r.before != r.after && n.RefusalStands(la, ver) {
				t.Fatalf("the snoop turned %+v into %+v and the seam's log still says a refusal under version %d stands", r.before, r.after, ver)
			}
			if got := ask(); got != r.after {
				t.Fatalf("after the snoop: %+v, want %+v", got, r.after)
			}
			if r.before != r.after && !moved {
				t.Fatalf("the snoop turned %+v into %+v under StateVersion %d", r.before, r.after, ver)
			}
		})
	}
}

// The seam's log answers for a counted refusal exactly when nothing since
// can have changed it: each row moves a node whose MSHR file is full and
// whose load of a T line was refused, counted, and then compares
// RefusalStands for the refusal's version against what Load answers on a
// twin moved the same way. True must mean refused; false may only mean
// that the log cannot tell (the last row).
func TestRefusalLogFollowsTheLine(t *testing.T) {
	const filler, third, other = uint64(0x8000), uint64(0x9000), uint64(0x4040)
	refused := LoadResult{Status: LoadRetry, Counted: true}
	// freeFiller completes the first filler's fetch: its MSHR frees.
	freeFiller := func(n *Controller) {
		n.CompleteTxn(&bus.Txn{Type: bus.TxnRead, Addr: filler, Data: lineOf(0)})
	}
	// moves puts k version moves on another line.
	moves := func(k int) func(*harness, *Controller, uint64) {
		return func(_ *harness, n *Controller, _ uint64) {
			for i := 0; i < k; i++ {
				n.installL2(other, lineOf(0), StateS)
			}
		}
	}
	rows := []struct {
		name   string
		move   func(h *harness, n *Controller, la uint64)
		stands bool
		load   LoadResult
	}{
		{"another line's MSHR frees and a third line allocates", func(h *harness, n *Controller, _ uint64) {
			freeFiller(n)
			if r := n.Load(h.seq(), third, false); r.Status != LoadMiss {
				h.t.Fatalf("load of the third line: %+v, want a miss", r)
			}
		}, true, refused},
		{"a free alone", func(_ *harness, n *Controller, _ uint64) { freeFiller(n) },
			false, LoadResult{Status: LoadMiss}},
		{"PrefetchExclusive allocates the line", func(_ *harness, n *Controller, la uint64) {
			freeFiller(n)
			n.PrefetchExclusive(la)
		}, false, LoadResult{Status: LoadMiss}},
		{"an E-MESTI validate restores the line", func(_ *harness, n *Controller, la uint64) {
			n.SnoopTxn(&bus.Txn{Type: bus.TxnValidate, Addr: la, Src: 1, WData: lineOf(7)})
		}, false, LoadResult{Status: LoadHit, Value: 7, Lat: L1Latency + L2Latency}},
		{"16 moves of another line", moves(movedSlots), true, refused},
		{"17 moves of another line: the log is overrun", moves(movedSlots + 1), false, refused},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			build := func() (*harness, *Controller, uint64) {
				h, n, la := snoopHarness(t, true, StateT, lineOf(7))
				h.fillMSHRs(0)
				if got := n.Load(h.seq(), la, false); got != refused {
					t.Fatalf("load of the T line behind a full file: %+v, want %+v", got, refused)
				}
				return h, n, la
			}
			h, n, la := build()
			ver := *n.StateVersionWord()
			r.move(h, n, la)
			stands := n.RefusalStands(la, ver)
			h, twin, la := build()
			r.move(h, twin, la)
			got := twin.Load(h.seq(), la, false)
			if stands != r.stands || got != r.load {
				t.Fatalf("the log says the refusal stands: %v, want %v; Load answers %+v, want %+v", stands, r.stands, got, r.load)
			}
		})
	}
}
