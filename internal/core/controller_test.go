package core

import (
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/mem"
	"tssim/internal/stats"
)

// testClient records controller callbacks for inspection.
type testClient struct {
	loadsDone map[uint64]uint64
	verified  map[uint64]bool
	squashes  []uint64
	scResults map[uint64]bool
	snoops    int
}

func newTestClient() *testClient {
	return &testClient{
		loadsDone: make(map[uint64]uint64),
		verified:  make(map[uint64]bool),
		scResults: make(map[uint64]bool),
	}
}

func (c *testClient) LoadDone(seq uint64, value uint64) { c.loadsDone[seq] = value }
func (c *testClient) LoadsVerified(seqs []uint64) {
	for _, s := range seqs {
		c.verified[s] = true
	}
}
func (c *testClient) SquashSpec(seqs []uint64)        { c.squashes = append(c.squashes, seqs...) }
func (c *testClient) SCDone(seq uint64, success bool) { c.scResults[seq] = success }
func (c *testClient) ExternalSnoop(uint64, bool)      { c.snoops++ }

// harness wires N controllers to an interconnect over one memory.
type harness struct {
	t       testing.TB
	mem     *mem.Memory
	bus     *bus.Bus
	ctrs    *stats.Counters
	nodes   []*Controller
	clients []*testClient
	now     uint64
	nextSeq uint64
}

// busTxns totals the bus transactions of every type so far.
func (h *harness) busTxns() uint64 {
	var n uint64
	for name, v := range h.ctrs.Snapshot() {
		if strings.HasPrefix(name, "bus/txn/") {
			n += v
		}
	}
	return n
}

func fastBusCfg() bus.Config {
	return bus.Config{AddrLatency: 4, AddrOccupancy: 2, MemLatency: 12, C2CLatency: 8, DataOccupancy: 2}
}

func smallNodeCfg() Config {
	return Config{
		L1:       cache.Config{SizeBytes: 512, Assoc: 2},  // 8 lines
		L2:       cache.Config{SizeBytes: 4096, Assoc: 4}, // 64 lines
		MSHRs:    4,
		StoreBuf: 8,
	}
}

// nodeCfg is what a harness mutator may change: a node's configuration
// and the techniques it runs.
type nodeCfg struct {
	Config
	Techniques
}

func newHarness(t testing.TB, n int, mut func(i int, c *nodeCfg)) *harness {
	return newHarnessIC(t, n, "", mut)
}

// newHarnessIC is newHarness on a chosen interconnect backend.
func newHarnessIC(t testing.TB, n int, kind string, mut func(i int, c *nodeCfg)) *harness {
	h := &harness{t: t, mem: mem.New(), ctrs: stats.NewCounters()}
	ic, err := bus.NewInterconnect(kind, fastBusCfg(), h.mem, h.ctrs, nil)
	if err != nil {
		t.Fatal(err)
	}
	h.bus = ic
	for i := 0; i < n; i++ {
		cfg := nodeCfg{Config: smallNodeCfg()}
		if mut != nil {
			mut(i, &cfg)
		}
		cl := newTestClient()
		h.clients = append(h.clients, cl)
		h.nodes = append(h.nodes, NewController(cfg.Config, cfg.Techniques, h.bus, cl, h.ctrs))
	}
	return h
}

func (h *harness) tick(n int) {
	for i := 0; i < n; i++ {
		h.bus.Tick(h.now)
		for _, c := range h.nodes {
			c.Tick(h.now)
		}
		h.now++
	}
}

// drain runs until the bus is idle and all store buffers are empty.
func (h *harness) drain() {
	for i := 0; i < 100000; i++ {
		idle := h.bus.Idle()
		for _, c := range h.nodes {
			if !c.StoreBufEmpty() {
				idle = false
			}
		}
		if idle {
			return
		}
		h.tick(1)
	}
	h.t.Fatal("harness: drain did not converge")
}

func (h *harness) seq() uint64 {
	h.nextSeq++
	return h.nextSeq
}

// loadValue issues a load on a node and runs the system until the
// final (verified) value is available; it returns that value.
func (h *harness) loadValue(node int, addr uint64) uint64 {
	for attempt := 0; attempt < 1000; attempt++ {
		s := h.seq()
		r := h.nodes[node].Load(s, addr, false)
		switch r.Status {
		case LoadHit:
			return r.Value
		case LoadRetry:
			h.tick(1)
			continue
		case LoadSpec, LoadMiss:
			cl := h.clients[node]
			// Only squashes arriving after this load was issued, with
			// a squash point at or before our seq, cover us.
			sqBase := len(cl.squashes)
			squashed := false
			for i := 0; i < 100000; i++ {
				if v, ok := cl.loadsDone[s]; ok {
					return v
				}
				if cl.verified[s] {
					return r.Value
				}
				for _, sq := range cl.squashes[sqBase:] {
					if s >= sq {
						squashed = true
					}
				}
				if squashed && r.Status == LoadSpec {
					break
				}
				h.tick(1)
			}
			if squashed && r.Status == LoadSpec {
				continue // squashed: re-execute
			}
			h.t.Fatalf("load of %#x never completed", addr)
		}
	}
	h.t.Fatalf("load of %#x livelocked", addr)
	return 0
}

// fillMSHRs occupies every MSHR of a node with a load miss to a line
// of its own (0x8000, 0x8040, ...); the bus is not ticked, so they stay
// outstanding.
func (h *harness) fillMSHRs(node int) {
	n := h.nodes[node]
	for i := 0; i < n.Config().MSHRs; i++ {
		if r := n.Load(h.seq(), 0x8000+uint64(i)*mem.LineSize, false); r.Status != LoadMiss {
			h.t.Fatalf("filler load %d: %+v, want a miss", i, r)
		}
	}
}

// store commits a store on a node and drains it to the cache.
func (h *harness) store(node int, addr, val uint64) {
	s := h.seq()
	for !h.nodes[node].StoreCommit(s, 0x100, addr, val) {
		h.tick(1)
	}
	h.drain()
}

// checkCoherenceInvariants asserts the global single-writer and data
// consistency invariants across all nodes.
func (h *harness) checkCoherenceInvariants() {
	type copyInfo struct {
		state State
		data  mem.Line
	}
	lines := map[uint64][]copyInfo{}
	for _, n := range h.nodes {
		n.ForEachL2(func(l *cache.Line) {
			lines[l.Addr] = append(lines[l.Addr], copyInfo{l.State, l.Data})
		})
	}
	for addr, copies := range lines {
		exclusive, owners, valid := 0, 0, 0
		var validData []mem.Line
		for _, c := range copies {
			switch c.state {
			case StateM, StateE:
				exclusive++
				valid++
				validData = append(validData, c.data)
			case StateO:
				owners++
				valid++
				validData = append(validData, c.data)
			case StateS, StateVS:
				valid++
				validData = append(validData, c.data)
			}
		}
		if exclusive > 1 {
			h.t.Fatalf("line %#x: %d exclusive copies", addr, exclusive)
		}
		if exclusive == 1 && valid > 1 {
			h.t.Fatalf("line %#x: exclusive copy coexists with %d valid copies", addr, valid)
		}
		if owners > 1 {
			h.t.Fatalf("line %#x: %d owners", addr, owners)
		}
		for i := 1; i < len(validData); i++ {
			if !validData[i].Equal(&validData[0]) {
				h.t.Fatalf("line %#x: divergent valid copies", addr)
			}
		}
	}
}

// --- Baseline MOESI behaviour ---

func TestColdReadInstallsExclusive(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.mem.WriteWord(0x1000, 7)
	if got := h.loadValue(0, 0x1000); got != 7 {
		t.Fatalf("loaded %d, want 7", got)
	}
	if s := h.nodes[0].LineState(0x1000); s != StateE {
		t.Fatalf("state = %s, want E", StateName(s))
	}
	if h.ctrs.Get("miss/mem") != 1 || h.ctrs.Get("miss/comm") != 0 {
		t.Fatal("cold miss misclassified")
	}
}

func TestSecondReadShares(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.mem.WriteWord(0x1000, 7)
	h.loadValue(0, 0x1000)
	if got := h.loadValue(1, 0x1000); got != 7 {
		t.Fatalf("remote loaded %d, want 7", got)
	}
	if s := h.nodes[0].LineState(0x1000); s != StateS {
		t.Fatalf("node0 = %s, want S (E downgraded by snoop)", StateName(s))
	}
	if s := h.nodes[1].LineState(0x1000); s != StateS {
		t.Fatalf("node1 = %s, want S", StateName(s))
	}
	h.checkCoherenceInvariants()
}

func TestStoreColdLineReadX(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.store(0, 0x1000, 42)
	if s := h.nodes[0].LineState(0x1000); s != StateM {
		t.Fatalf("state = %s, want M", StateName(s))
	}
	if h.ctrs.Get("bus/txn/readx") != 1 {
		t.Fatalf("readx count = %d, want 1", h.ctrs.Get("bus/txn/readx"))
	}
	if got := h.loadValue(0, 0x1000); got != 42 {
		t.Fatalf("readback %d, want 42", got)
	}
}

func TestCommunicationMissCacheToCache(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.store(0, 0x1000, 42)
	if got := h.loadValue(1, 0x1000); got != 42 {
		t.Fatalf("remote read %d, want 42", got)
	}
	if s := h.nodes[0].LineState(0x1000); s != StateO {
		t.Fatalf("supplier = %s, want O", StateName(s))
	}
	if s := h.nodes[1].LineState(0x1000); s != StateS {
		t.Fatalf("requester = %s, want S", StateName(s))
	}
	if h.ctrs.Get("miss/comm") != 1 {
		t.Fatalf("comm misses = %d, want 1", h.ctrs.Get("miss/comm"))
	}
	h.checkCoherenceInvariants()
}

func TestStoreToSharedUpgrades(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.mem.WriteWord(0x1000, 1)
	h.loadValue(0, 0x1000)
	h.loadValue(1, 0x1000) // both S
	h.store(0, 0x1000, 2)
	if h.ctrs.Get("bus/txn/upgrade") != 1 {
		t.Fatalf("upgrades = %d, want 1", h.ctrs.Get("bus/txn/upgrade"))
	}
	if s := h.nodes[0].LineState(0x1000); s != StateM {
		t.Fatalf("writer = %s, want M", StateName(s))
	}
	// Baseline: remote copy invalidated (I, data retained).
	if s := h.nodes[1].LineState(0x1000); s != StateI {
		t.Fatalf("remote = %s, want I", StateName(s))
	}
	if got := h.loadValue(1, 0x1000); got != 2 {
		t.Fatalf("remote reload %d, want 2", got)
	}
	h.checkCoherenceInvariants()
}

func TestSilentEtoM(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.loadValue(0, 0x1000) // E
	before := h.busTxns()
	h.store(0, 0x1000, 5)
	if h.busTxns() != before {
		t.Fatal("E->M store must be bus-silent")
	}
	if s := h.nodes[0].LineState(0x1000); s != StateM {
		t.Fatalf("state = %s, want M", StateName(s))
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := newHarness(t, 1, nil)
	// L2 is 64 lines, 4-way -> 16 sets. Writing 5 lines that map to
	// the same set forces a dirty eviction.
	stride := uint64(16 * 64) // set-conflict stride
	for i := uint64(0); i < 5; i++ {
		h.store(0, 0x10000+i*stride, 100+i)
	}
	h.drain()
	if h.ctrs.Get("l2/evict_dirty") == 0 {
		t.Fatal("no dirty eviction occurred; fix the stride")
	}
	if h.ctrs.Get("bus/txn/writeback") == 0 {
		t.Fatal("no writeback transaction")
	}
	// The evicted line's value must be recoverable (from memory).
	if got := h.loadValue(0, 0x10000); got != 100 {
		t.Fatalf("evicted value = %d, want 100", got)
	}
}

func TestUpgradeRaceConversion(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.mem.WriteWord(0x1000, 0)
	h.loadValue(0, 0x1000)
	h.loadValue(1, 0x1000) // both S
	// Both nodes commit a store in the same cycle; both queue
	// Upgrades; the loser must convert to ReadX.
	h.nodes[0].StoreCommit(h.seq(), 0, 0x1000, 10)
	h.nodes[1].StoreCommit(h.seq(), 0, 0x1000, 20)
	h.drain()
	if got := h.ctrs.Get("coherence/upgrade_converted"); got != 1 {
		t.Fatalf("upgrade conversions = %d, want 1", got)
	}
	h.checkCoherenceInvariants()
	// Exactly one final value, and both nodes agree on it.
	v0 := h.loadValue(0, 0x1000)
	v1 := h.loadValue(1, 0x1000)
	if v0 != v1 || (v0 != 10 && v0 != 20) {
		t.Fatalf("final values %d/%d", v0, v1)
	}
}

func TestStoreBufferForwarding(t *testing.T) {
	h := newHarness(t, 1, nil)
	// Commit a store but do not drain; an immediate load must forward
	// from the buffer.
	h.nodes[0].StoreCommit(h.seq(), 0, 0x1000, 77)
	r := h.nodes[0].Load(h.seq(), 0x1000, false)
	if r.Status != LoadHit || r.Value != 77 {
		t.Fatalf("forward result %+v", r)
	}
	if h.ctrs.Get("l1/store_forward") != 1 {
		t.Fatal("forward not counted")
	}
	h.drain()
}

// --- LL/SC ---

// anySC is a store-conditional seq younger than every load-locked: with
// it HasReservation asks only whether the line is reserved.
const anySC = ^uint64(0)

func TestLLSCSuccess(t *testing.T) {
	h := newHarness(t, 2, nil)
	s := h.seq()
	r := h.nodes[0].Load(s, 0x1000, true)
	if r.Status == LoadMiss {
		for h.clients[0].loadsDone[s] == 0 && len(h.clients[0].loadsDone) == 0 {
			h.tick(1)
		}
	}
	if !h.nodes[0].HasReservation(0x1000, anySC) {
		t.Fatal("LL did not set reservation")
	}
	scSeq := h.seq()
	h.nodes[0].SCExecute(scSeq, 0, 0x1000, 1)
	h.drain()
	ok, present := h.clients[0].scResults[scSeq]
	if !present || !ok {
		t.Fatalf("SC result %v/%v, want success", ok, present)
	}
	if got := h.loadValue(0, 0x1000); got != 1 {
		t.Fatalf("value %d, want 1", got)
	}
}

func TestSCFailsAfterRemoteWrite(t *testing.T) {
	h := newHarness(t, 2, nil)
	h.loadValue(0, 0x1000) // bring line in
	h.nodes[0].Load(h.seq(), 0x1000, true)
	// Remote store invalidates the reservation.
	h.store(1, 0x1000, 9)
	if h.nodes[0].HasReservation(0x1000, anySC) {
		t.Fatal("reservation survived remote write")
	}
	scSeq := h.seq()
	h.nodes[0].SCExecute(scSeq, 0, 0x1000, 1)
	h.drain()
	if ok := h.clients[0].scResults[scSeq]; ok {
		t.Fatal("SC must fail after losing the reservation")
	}
	if got := h.loadValue(0, 0x1000); got != 9 {
		t.Fatalf("failed SC wrote memory: %d", got)
	}
}

// A reservation answers only for SCs younger than the load-locked that
// armed it. A remote ReadX kills the reservation of LL1; LL2, younger than
// the SC (a speculative load-locked of the next iteration, to another word
// of the line), misses and its fill re-arms the line; the older SC must
// still fail, or it would write a sum computed from LL1's stale value.
func TestYoungerLLRearmsNoOlderSC(t *testing.T) {
	h := newHarness(t, 2, nil)
	n := h.nodes[0]
	h.loadValue(0, 0x1000)
	ll1 := h.seq()
	if r := n.Load(ll1, 0x1000, true); r.Status != LoadHit {
		t.Fatalf("LL1: %+v, want a hit", r)
	}
	sc := h.seq()
	h.store(1, 0x1000, 9) // the remote ReadX
	if n.HasReservation(0x1000, anySC) {
		t.Fatal("reservation survived the remote ReadX")
	}
	ll2 := h.seq()
	if r := n.Load(ll2, 0x1008, true); r.Status != LoadMiss {
		t.Fatalf("LL2: %+v, want a miss", r)
	}
	h.drain()
	if !n.HasReservation(0x1000, anySC) || n.HasReservation(0x1000, sc) {
		t.Fatalf("after LL2's fill: reserved %v, for the SC %v; want true, false",
			n.HasReservation(0x1000, anySC), n.HasReservation(0x1000, sc))
	}
	n.SCExecute(sc, 0, 0x1000, 1)
	h.drain()
	if ok, done := h.clients[0].scResults[sc]; !done || ok {
		t.Fatalf("SC older than the re-arming LL: done %v, succeeded %v; want a failure", done, ok)
	}
	if got := h.loadValue(0, 0x1000); got != 9 {
		t.Fatalf("the failed SC wrote memory: %d, want 9", got)
	}
}

// While the reservation stands, a younger LL to the line keeps the older
// arming: the line has stayed reserved since LL1, so the SC between them
// performs (re-arming at LL2 would fail it on every retry).
func TestLiveReservationKeepsOlderLL(t *testing.T) {
	h := newHarness(t, 1, nil)
	n := h.nodes[0]
	h.loadValue(0, 0x1000)
	n.Load(h.seq(), 0x1000, true)
	sc := h.seq()
	if r := n.Load(h.seq(), 0x1008, true); r.Status != LoadHit {
		t.Fatalf("LL2: %+v, want a hit", r)
	}
	n.SCExecute(sc, 0, 0x1000, 1)
	h.drain()
	if ok, done := h.clients[0].scResults[sc]; !done || !ok {
		t.Fatalf("SC between two LLs of a standing reservation: done %v, succeeded %v; want success", done, ok)
	}
}

func TestLoadBlocksOnPendingSC(t *testing.T) {
	h := newHarness(t, 1, nil)
	h.nodes[0].Load(h.seq(), 0x1000, true)
	h.drain()
	h.nodes[0].SCExecute(h.seq(), 0, 0x1000, 1)
	r := h.nodes[0].Load(h.seq(), 0x1000, false)
	if r.Status != LoadRetry {
		t.Fatalf("load overlapping pending SC: %v, want retry", r.Status)
	}
	h.drain()
}
