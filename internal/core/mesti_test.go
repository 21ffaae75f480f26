package core

import (
	"math/rand"
	"testing"

	"tssim/internal/mem"
)

func mestiCfg(i int, c *nodeCfg) { c.MESTI = true }

func emestiCfg(i int, c *nodeCfg) {
	c.MESTI = true
	c.EMESTI = true
}

func lvpCfg(i int, c *nodeCfg) { c.LVP = true }

// setupLockSharing brings a line into the canonical lock-handoff
// state: node 1 holds it shared, node 0 then acquires (upgrade,
// node 1 -> T under MESTI).
func setupLockSharing(h *harness, addr uint64) {
	h.mem.WriteWord(addr, 0) // lock free
	h.loadValue(0, addr)
	h.loadValue(1, addr) // both S
	h.store(0, addr, 1)  // "acquire": upgrade, remote invalidated
}

func TestMESTIEnterT(t *testing.T) {
	h := newHarness(t, 2, mestiCfg)
	setupLockSharing(h, 0x1000)
	if s := h.nodes[1].LineState(0x1000); s != StateT {
		t.Fatalf("remote state = %s, want T", StateName(s))
	}
	if h.ctrs.Get("mesti/enter_t") == 0 {
		t.Fatal("enter_t not counted")
	}
	// T is not readable: a local load misses.
	if h.ctrs.Get("miss/comm") != 0 {
		t.Fatal("unexpected comm miss before reload")
	}
	if got := h.loadValue(1, 0x1000); got != 1 {
		t.Fatalf("reload %d, want 1", got)
	}
	if h.ctrs.Get("miss/comm") != 1 {
		t.Fatal("reload of T line must be a communication miss")
	}
}

func TestMESTIValidateEliminatesMiss(t *testing.T) {
	h := newHarness(t, 2, mestiCfg)
	setupLockSharing(h, 0x1000)
	missesBefore := h.ctrs.Get("miss/comm")
	// "Release": the temporally silent store reverts the lock word.
	h.store(0, 0x1000, 0)
	if h.ctrs.Get("mesti/ts_detect") != 1 {
		t.Fatalf("ts_detect = %d, want 1", h.ctrs.Get("mesti/ts_detect"))
	}
	if h.ctrs.Get("bus/txn/validate") != 1 {
		t.Fatalf("validates = %d, want 1", h.ctrs.Get("bus/txn/validate"))
	}
	if h.ctrs.Get("mesti/revalidate") != 1 {
		t.Fatalf("revalidates = %d, want 1", h.ctrs.Get("mesti/revalidate"))
	}
	// Validator forgoes exclusivity; remote revalidated to S.
	if s := h.nodes[0].LineState(0x1000); s != StateO {
		t.Fatalf("validator = %s, want O", StateName(s))
	}
	if s := h.nodes[1].LineState(0x1000); s != StateS {
		t.Fatalf("remote = %s, want S", StateName(s))
	}
	// The remote read now *hits*: no additional communication miss.
	if got := h.loadValue(1, 0x1000); got != 0 {
		t.Fatalf("remote read %d, want 0", got)
	}
	if h.ctrs.Get("miss/comm") != missesBefore {
		t.Fatal("validate failed to eliminate the communication miss")
	}
	h.checkCoherenceInvariants()
}

func TestMESTIIntermediateStoreAfterValidateUpgrades(t *testing.T) {
	h := newHarness(t, 2, mestiCfg)
	setupLockSharing(h, 0x1000)
	h.store(0, 0x1000, 0) // validate
	upBefore := h.ctrs.Get("bus/txn/upgrade")
	h.store(0, 0x1000, 1) // re-acquire: intermediate value store
	if h.ctrs.Get("bus/txn/upgrade") != upBefore+1 {
		t.Fatal("intermediate value store after validate must upgrade")
	}
	if s := h.nodes[1].LineState(0x1000); s != StateT {
		t.Fatalf("remote = %s, want T again", StateName(s))
	}
	// And a second release revalidates again.
	h.store(0, 0x1000, 0)
	if h.ctrs.Get("mesti/revalidate") != 2 {
		t.Fatal("second validate did not revalidate")
	}
}

func TestMESTISecondInvalidationKeepsSavedCopy(t *testing.T) {
	h := newHarness(t, 3, mestiCfg)
	h.mem.WriteWord(0x1000, 0)
	for n := 0; n < 3; n++ {
		h.loadValue(n, 0x1000)
	}
	h.store(0, 0x1000, 1) // nodes 1,2 -> T(0)
	if h.nodes[1].LineState(0x1000) != StateT || h.nodes[2].LineState(0x1000) != StateT {
		t.Fatal("expected T copies")
	}
	// Node 1 writes (its T is not upgradable: ReadX). Node 2's T copy
	// survives the second invalidation — only one previous value is
	// ever saved, and validates decide by data comparison.
	h.store(1, 0x1000, 2)
	if s := h.nodes[2].LineState(0x1000); s != StateT {
		t.Fatalf("node2 = %s, want T retained", StateName(s))
	}
	if h.ctrs.Get("mesti/t_reinvalidated") == 0 {
		t.Fatal("t_reinvalidated not counted")
	}
	// Node 1 reverts the line all the way back to the original value
	// (two-writer ABA): its candidate is the value its ReadX received
	// (1), so storing 1 validates — node 2's T(0) copy must *reject*
	// that validate (data mismatch) and go I.
	h.store(1, 0x1000, 1)
	if h.ctrs.Get("bus/txn/validate") == 0 {
		t.Skip("no validate sent; scenario assumption broken")
	}
	if s := h.nodes[2].LineState(0x1000); s != StateI {
		t.Fatalf("node2 = %s, want I after mismatched validate", StateName(s))
	}
	h.checkCoherenceInvariants()
}

func TestMESTIValidateEpochMismatch(t *testing.T) {
	// Constructs the stale-epoch scenario: T holders from epoch V0
	// must reject (go I on) a validate carrying epoch V1 data.
	h := newHarness(t, 4, mestiCfg)
	base := uint64(0x1000)
	h.mem.WriteWord(base, 10) // V0 word value
	for n := 0; n < 3; n++ {
		h.loadValue(n, base)
	}
	h.store(0, base, 11) // nodes 1,2 -> T with candidate word=10
	if h.nodes[1].LineState(base) != StateT {
		t.Fatal("setup failed")
	}
	// Evict node 0's dirty line (value 11) to memory.
	stride := uint64(16 * 64)
	for i := uint64(1); i <= 4; i++ {
		h.store(0, base+i*stride, i)
	}
	h.drain()
	if h.nodes[0].LineState(base) != StateI {
		t.Skip("eviction did not displace the target line; stride assumption broken")
	}
	// Node 3 reads V1=11 from memory (E), stores 12, then reverts to
	// 11: temporal silence against *its* epoch -> validate with 11.
	if got := h.loadValue(3, base); got != 11 {
		t.Fatalf("node3 read %d, want 11", got)
	}
	h.store(3, base, 12)
	h.store(3, base, 11) // TS detect vs candidate 11 -> validate
	if h.ctrs.Get("bus/txn/validate") == 0 {
		t.Fatal("validate was not sent")
	}
	// Nodes 1,2 held candidate 10 != 11: must drop to I, not S.
	for _, n := range []int{1, 2} {
		if s := h.nodes[n].LineState(base); s != StateI {
			t.Fatalf("node%d = %s, want I (epoch mismatch)", n, StateName(s))
		}
	}
	if h.ctrs.Get("mesti/validate_mismatch") == 0 {
		t.Fatal("mismatch not counted")
	}
	// And their data must be correct on reload.
	if got := h.loadValue(1, base); got != 11 {
		t.Fatalf("node1 reload %d, want 11", got)
	}
	h.checkCoherenceInvariants()
}

func TestUpdateSilentSquash(t *testing.T) {
	h := newHarness(t, 2, mestiCfg)
	h.mem.WriteWord(0x1000, 5)
	h.loadValue(0, 0x1000)
	h.loadValue(1, 0x1000) // both S
	txnBefore := h.busTxns()
	h.store(0, 0x1000, 5) // update-silent: same value
	if h.ctrs.Get("store/us_squash") != 1 {
		t.Fatal("US store not squashed")
	}
	if h.busTxns() != txnBefore {
		t.Fatal("US store generated bus traffic")
	}
	if s := h.nodes[1].LineState(0x1000); s != StateS {
		t.Fatal("US store must not invalidate sharers")
	}
}

// --- E-MESTI ---

func TestEMESTIColdSuppressionAndTraining(t *testing.T) {
	h := newHarness(t, 2, emestiCfg)
	setupLockSharing(h, 0x1000)
	// First reversion: cold confidence 3 < 4 suppresses the validate.
	h.store(0, 0x1000, 0)
	if h.ctrs.Get("mesti/validate_suppressed") != 1 {
		t.Fatalf("suppressed = %d, want 1", h.ctrs.Get("mesti/validate_suppressed"))
	}
	if h.ctrs.Get("bus/txn/validate") != 0 {
		t.Fatal("cold validate must be suppressed")
	}
	// The remote miss is observed (line still M here): external
	// request while TS-detected trains +1.
	if got := h.loadValue(1, 0x1000); got != 0 {
		t.Fatalf("remote read %d, want 0", got)
	}
	if conf := h.nodes[0].Predictor().Confidence(0x1000); conf != 4 {
		t.Fatalf("confidence = %d, want 4", conf)
	}
	// Next acquire/release cycle: the validate is now sent.
	h.store(0, 0x1000, 1)
	h.store(0, 0x1000, 0)
	if h.ctrs.Get("bus/txn/validate") != 1 {
		t.Fatalf("validates = %d, want 1 after training", h.ctrs.Get("bus/txn/validate"))
	}
	// Remote enters Validate_Shared, not S.
	if s := h.nodes[1].LineState(0x1000); s != StateVS {
		t.Fatalf("remote = %s, want VS", StateName(s))
	}
}

func TestEMESTIUsefulResponseKeepsValidating(t *testing.T) {
	h := newHarness(t, 2, emestiCfg)
	setupLockSharing(h, 0x1000)
	h.store(0, 0x1000, 0)  // suppressed (cold)
	h.loadValue(1, 0x1000) // train +1 -> 4
	// Lock handoff loop where the remote *uses* the line every time:
	// VS -> S on use, so upgrades see the useful response asserted
	// and confidence keeps climbing.
	for i := 0; i < 4; i++ {
		h.store(0, 0x1000, 1) // acquire (upgrade; useful resp observed)
		h.store(0, 0x1000, 0) // release (validate)
		if got := h.loadValue(1, 0x1000); got != 0 {
			t.Fatalf("iter %d: remote read %d, want 0", i, got)
		}
	}
	if conf := h.nodes[0].Predictor().Confidence(0x1000); conf < 4 {
		t.Fatalf("confidence = %d, want >= 4 with useful validates", conf)
	}
	// All misses after training are gone: the remote read hits in
	// S/VS each iteration.
	if h.ctrs.Get("bus/txn/validate") < 3 {
		t.Fatalf("validates = %d, want >= 3", h.ctrs.Get("bus/txn/validate"))
	}
}

func TestEMESTIUselessValidatesTrainOff(t *testing.T) {
	h := newHarness(t, 2, emestiCfg)
	setupLockSharing(h, 0x1000)
	h.store(0, 0x1000, 0)  // suppressed
	h.loadValue(1, 0x1000) // conf -> 4
	// Now node 1 never touches the line again. Each acquire sees the
	// VS holder stay silent (useless response): confidence falls and
	// validates stop.
	validatesAt := func() uint64 { return h.ctrs.Get("bus/txn/validate") }
	for i := 0; i < 4; i++ {
		h.store(0, 0x1000, 1)
		h.store(0, 0x1000, 0)
	}
	total := validatesAt()
	if total == 0 {
		t.Fatal("expected at least one validate before training off")
	}
	// Further cycles produce no more validates.
	for i := 0; i < 3; i++ {
		h.store(0, 0x1000, 1)
		h.store(0, 0x1000, 0)
	}
	if validatesAt() != total {
		t.Fatalf("useless validates kept flowing: %d -> %d", total, validatesAt())
	}
	if conf := h.nodes[0].Predictor().Confidence(0x1000); conf >= 4 {
		t.Fatalf("confidence = %d, want < 4", conf)
	}
}

func TestEMESTIVSSilentSnoopCounted(t *testing.T) {
	h := newHarness(t, 2, emestiCfg)
	setupLockSharing(h, 0x1000)
	h.store(0, 0x1000, 0)
	h.loadValue(1, 0x1000)
	h.store(0, 0x1000, 1) // useful response (S holder)
	h.store(0, 0x1000, 0) // validate -> node1 VS
	if h.nodes[1].LineState(0x1000) != StateVS {
		t.Fatal("setup: expected VS")
	}
	h.store(0, 0x1000, 1) // VS holder stays silent
	if h.ctrs.Get("emesti/vs_silent_snoop") == 0 {
		t.Fatal("VS silent snoop not counted")
	}
}

// --- LVP ---

func TestLVPCorrectPrediction(t *testing.T) {
	h := newHarness(t, 2, lvpCfg)
	h.mem.WriteWord(0x1000, 7)
	h.loadValue(0, 0x1000)
	h.loadValue(1, 0x1000) // both S
	// Node 0 writes a *different word* of the line: false sharing.
	h.store(0, 0x1008, 1)
	// Node 1's copy is tag-match invalid; a load of word 0 gets the
	// stale (still correct) value speculatively.
	s := h.seq()
	r := h.nodes[1].Load(s, 0x1000, false)
	if r.Status != LoadSpec || r.Value != 7 {
		t.Fatalf("load = %+v, want spec value 7", r)
	}
	h.drain()
	if !h.clients[1].verified[s] {
		t.Fatal("false-sharing prediction must verify")
	}
	if len(h.clients[1].squashes) != 0 {
		t.Fatal("unexpected squash")
	}
	if h.ctrs.Get("lvp/verify_ok") != 1 {
		t.Fatal("verify_ok not counted")
	}
}

func TestLVPMispredictionSquashes(t *testing.T) {
	h := newHarness(t, 2, lvpCfg)
	h.mem.WriteWord(0x1000, 7)
	h.loadValue(0, 0x1000)
	h.loadValue(1, 0x1000)
	h.store(0, 0x1000, 8) // same word changed
	s := h.seq()
	r := h.nodes[1].Load(s, 0x1000, false)
	if r.Status != LoadSpec || r.Value != 7 {
		t.Fatalf("load = %+v, want stale spec value 7", r)
	}
	h.drain()
	if len(h.clients[1].squashes) != 1 || h.clients[1].squashes[0] != s {
		t.Fatalf("squashes = %v, want [%d]", h.clients[1].squashes, s)
	}
	if h.ctrs.Get("lvp/verify_fail") != 1 {
		t.Fatal("verify_fail not counted")
	}
	// Re-executed load gets the correct value.
	if got := h.loadValue(1, 0x1000); got != 8 {
		t.Fatalf("re-executed load %d, want 8", got)
	}
}

func TestLVPSquashFromOldestSpecOp(t *testing.T) {
	h := newHarness(t, 2, lvpCfg)
	h.mem.WriteWord(0x1000, 7)
	h.mem.WriteWord(0x1008, 9)
	h.loadValue(0, 0x1000)
	h.loadValue(1, 0x1000)
	h.store(0, 0x1008, 10) // invalidate node1, change word 1 only
	// Two speculative loads merge into one MSHR; word 1's prediction
	// (9) is wrong, so the squash targets the *older* op even though
	// word 0's prediction was fine (§3.2 pessimistic recovery).
	s1 := h.seq()
	r1 := h.nodes[1].Load(s1, 0x1000, false) // correct prediction
	s2 := h.seq()
	r2 := h.nodes[1].Load(s2, 0x1008, false) // wrong prediction
	if r1.Status != LoadSpec || r2.Status != LoadSpec {
		t.Fatalf("statuses %v/%v", r1.Status, r2.Status)
	}
	h.drain()
	// The controller reports every op that received a speculative
	// value, oldest first; the core squashes from the oldest live one
	// even though only word 1's prediction was wrong (§3.2 pessimistic
	// recovery).
	if len(h.clients[1].squashes) != 2 || h.clients[1].squashes[0] != s1 || h.clients[1].squashes[1] != s2 {
		t.Fatalf("squash = %v, want [%d %d]", h.clients[1].squashes, s1, s2)
	}
}

func TestLVPNoSpecWithoutTagMatch(t *testing.T) {
	h := newHarness(t, 2, lvpCfg)
	h.mem.WriteWord(0x9000, 3)
	s := h.seq()
	r := h.nodes[0].Load(s, 0x9000, false) // true cold miss
	if r.Status != LoadMiss {
		t.Fatalf("cold miss status = %v, want LoadMiss", r.Status)
	}
	h.drain()
	if h.clients[0].loadsDone[s] != 3 {
		t.Fatalf("load done = %d, want 3", h.clients[0].loadsDone[s])
	}
}

func TestLVPWithMESTITState(t *testing.T) {
	// Under MESTI+LVP, a T line is a prediction source too, and for a
	// genuinely reverting line the prediction verifies.
	h := newHarness(t, 2, func(i int, c *nodeCfg) {
		mestiCfg(i, c)
		c.LVP = true
	})
	setupLockSharing(h, 0x1000)
	if h.nodes[1].LineState(0x1000) != StateT {
		t.Fatal("setup failed")
	}
	s := h.seq()
	r := h.nodes[1].Load(s, 0x1008, false) // different word: still 0
	if r.Status != LoadSpec {
		t.Fatalf("status = %v, want spec from T line", r.Status)
	}
	h.drain()
	if !h.clients[1].verified[s] {
		t.Fatal("prediction from T line should verify (word untouched)")
	}
}

// --- Randomized cross-node stress with oracle ---

func TestRandomStressWithOracle(t *testing.T) {
	for _, variant := range []struct {
		name string
		mut  func(i int, c *nodeCfg)
	}{
		{"baseline", nil},
		{"mesti", mestiCfg},
		{"emesti", emestiCfg},
		{"lvp", lvpCfg},
		{"emesti+lvp", func(i int, c *nodeCfg) { emestiCfg(i, c); c.LVP = true }},
	} {
		t.Run(variant.name, func(t *testing.T) {
			h := newHarness(t, 4, variant.mut)
			rng := rand.New(rand.NewSource(42))
			// Each node owns word n of every line; lines are shared
			// (false sharing) so invalidations fly constantly. The
			// oracle is per-word: last committed value wins, and only
			// the owner writes a word.
			const numLines = 32
			oracle := map[uint64]uint64{}
			for op := 0; op < 2000; op++ {
				node := rng.Intn(4)
				line := uint64(rng.Intn(numLines))
				addr := 0x4000 + line*mem.LineSize + uint64(node)*8
				if rng.Intn(2) == 0 {
					v := uint64(op + 1)
					s := h.seq()
					if h.nodes[node].StoreCommit(s, 0, addr, v) {
						oracle[addr] = v
					}
				} else {
					h.loadValue(node, addr) // exercises all read paths
				}
				h.tick(rng.Intn(3))
				if op%250 == 0 {
					h.drain()
					h.checkCoherenceInvariants()
				}
			}
			h.drain()
			h.checkCoherenceInvariants()
			for addr, want := range oracle {
				reader := rng.Intn(4)
				if got := h.loadValue(reader, addr); got != want {
					t.Fatalf("addr %#x: node %d read %d, want %d", addr, reader, got, want)
				}
			}
		})
	}
}
