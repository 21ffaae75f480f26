package bus

import (
	"strings"
	"testing"

	"tssim/internal/mem"
	"tssim/internal/stats"
)

// fakePort is a scriptable Port for bus unit tests.
type fakePort struct {
	id        int
	grantOK   bool
	snoopResp SnoopReply
	granted   []*Txn
	snooped   []*Txn
	completed []*Txn
}

func (p *fakePort) GrantTxn(t *Txn) bool {
	p.granted = append(p.granted, t)
	return p.grantOK
}
func (p *fakePort) SnoopTxn(t *Txn) SnoopReply {
	p.snooped = append(p.snooped, t)
	return p.snoopResp
}
func (p *fakePort) CompleteTxn(t *Txn) { p.completed = append(p.completed, t) }

// testFabric builds a fabric of the given kind with nports fakePorts.
func testFabric(kind string, nports int, cfg Config) (*Bus, []*fakePort, *mem.Memory, *stats.Counters) {
	m := mem.New()
	c := stats.NewCounters()
	b, err := NewInterconnect(kind, cfg, m, c, nil)
	if err != nil {
		panic(err)
	}
	ports := make([]*fakePort, nports)
	for i := range ports {
		ports[i] = &fakePort{grantOK: true}
		ports[i].id = b.Attach(ports[i])
	}
	return b, ports, m, c
}

func testBus(nports int, cfg Config) (*Bus, []*fakePort, *mem.Memory, *stats.Counters) {
	return testFabric(KindBus, nports, cfg)
}

func run(b *Bus, from, to uint64) {
	for now := from; now <= to; now++ {
		b.Tick(now)
	}
}

func fastCfg() Config {
	return Config{AddrLatency: 4, AddrOccupancy: 2, MemLatency: 10, C2CLatency: 8, DataOccupancy: 3}
}

func TestReadFromMemory(t *testing.T) {
	b, ports, m, c := testBus(2, fastCfg())
	m.WriteWord(0x1000, 99)
	tx := &Txn{Type: TxnRead, Addr: 0x1008, Src: 0}
	b.Request(tx)
	run(b, 0, 20)
	if len(ports[0].completed) != 1 {
		t.Fatalf("completions = %d, want 1", len(ports[0].completed))
	}
	got := ports[0].completed[0]
	if !got.HasData || got.Data.Word(0) != 99 {
		t.Fatalf("data word0 = %d, want 99", got.Data.Word(0))
	}
	if got.Addr != 0x1000 {
		t.Fatalf("addr not line-aligned: %#x", got.Addr)
	}
	if got.Owned || got.Shared {
		t.Fatal("memory-sourced read should not be owned/shared")
	}
	if len(ports[1].snooped) != 1 {
		t.Fatal("remote node was not snooped")
	}
	if len(ports[0].snooped) != 0 {
		t.Fatal("requester must not snoop its own transaction")
	}
	if c.Get("bus/txn/read") != 1 || c.Get("bus/data/mem") != 1 {
		t.Fatal("counters wrong")
	}
}

func TestReadSuppliedByOwner(t *testing.T) {
	b, ports, _, c := testBus(2, fastCfg())
	var owned mem.Line
	owned.SetWord(2, 1234)
	ports[1].snoopResp = SnoopReply{Shared: true, Data: &owned}
	tx := &Txn{Type: TxnRead, Addr: 0x2000, Src: 0}
	b.Request(tx)
	run(b, 0, 20)
	got := ports[0].completed[0]
	if !got.Owned || !got.Shared {
		t.Fatal("owner response not combined")
	}
	if got.Data.Word(2) != 1234 {
		t.Fatal("owner data not delivered")
	}
	if c.Get("bus/data/c2c") != 1 {
		t.Fatal("c2c counter not bumped")
	}
}

func TestC2CFasterThanMemory(t *testing.T) {
	cfg := fastCfg()
	// Memory read completes at grant+10; c2c at grant+8.
	b, ports, _, _ := testBus(2, cfg)
	var owned mem.Line
	ports[1].snoopResp = SnoopReply{Data: &owned}
	b.Request(&Txn{Type: TxnRead, Addr: 0x2000, Src: 0})
	run(b, 0, 8)
	if len(ports[0].completed) != 1 {
		t.Fatal("c2c read should be done by cycle 8")
	}
}

func TestUpgradeCompletesAtAddrLatency(t *testing.T) {
	b, ports, _, _ := testBus(2, fastCfg())
	b.Request(&Txn{Type: TxnUpgrade, Addr: 0x3000, Src: 0})
	run(b, 0, 3)
	if len(ports[0].completed) != 0 {
		t.Fatal("upgrade completed too early")
	}
	run(b, 4, 4)
	if len(ports[0].completed) != 1 {
		t.Fatal("upgrade should complete at addr latency")
	}
	if ports[0].completed[0].HasData {
		t.Fatal("upgrade must not carry data")
	}
}

func TestWritebackUpdatesMemory(t *testing.T) {
	b, _, m, _ := testBus(2, fastCfg())
	tx := &Txn{Type: TxnWriteback, Addr: 0x4000, Src: 1}
	tx.WData.SetWord(3, 555)
	b.Request(tx)
	run(b, 0, 10)
	if m.ReadWord(0x4000+3*8) != 555 {
		t.Fatal("writeback did not reach memory")
	}
}

func TestGrantCancellation(t *testing.T) {
	b, ports, _, c := testBus(2, fastCfg())
	ports[0].grantOK = false
	b.Request(&Txn{Type: TxnValidate, Addr: 0x5000, Src: 0})
	run(b, 0, 20)
	if len(ports[1].snooped) != 0 {
		t.Fatal("cancelled txn must not be snooped")
	}
	if len(ports[0].completed) != 0 {
		t.Fatal("cancelled txn must not complete")
	}
	if c.Get("bus/aborted/validate") != 1 {
		t.Fatal("abort counter not bumped")
	}
	if c.Get("bus/txn/validate") != 0 {
		t.Fatal("cancelled txn counted as granted")
	}
}

func TestAddressOccupancySerializes(t *testing.T) {
	b, ports, _, _ := testBus(2, fastCfg())
	b.Request(&Txn{Type: TxnUpgrade, Addr: 0x1000, Src: 0})
	b.Request(&Txn{Type: TxnUpgrade, Addr: 0x2000, Src: 0})
	b.Tick(0)
	if len(ports[0].granted) != 1 {
		t.Fatalf("granted %d at cycle 0, want 1", len(ports[0].granted))
	}
	b.Tick(1)
	if len(ports[0].granted) != 1 {
		t.Fatal("second grant before occupancy expired")
	}
	b.Tick(2)
	if len(ports[0].granted) != 2 {
		t.Fatal("second grant missing after occupancy")
	}
}

func TestRoundRobinFairness(t *testing.T) {
	b, ports, _, _ := testBus(3, fastCfg())
	for i := 0; i < 3; i++ {
		b.Request(&Txn{Type: TxnUpgrade, Addr: uint64(0x1000 * (i + 1)), Src: i})
	}
	// Grants happen at cycles 0, 2, 4 under occupancy 2.
	run(b, 0, 4)
	order := []int{}
	for i, p := range ports {
		for range p.granted {
			order = append(order, i)
		}
	}
	if len(order) != 3 {
		t.Fatalf("granted %d, want 3", len(order))
	}
	// After node 0 is served the pointer moves past it, so each node
	// gets exactly one grant before any repeats.
	seen := map[int]bool{}
	for _, n := range order {
		if seen[n] {
			t.Fatalf("node %d served twice before others: %v", n, order)
		}
		seen[n] = true
	}
}

func TestArbStartRotatesFirstGrant(t *testing.T) {
	// Three nodes request in the same cycle; the node favored by the
	// first contended grant is ArbStart mod N, and subsequent grants
	// continue round-robin from there. ArbStart is the enumeration
	// mode's arbitration-rotation knob, so the mapping must be exact.
	for arb := 0; arb < 5; arb++ {
		cfg := fastCfg()
		cfg.ArbStart = arb
		b, ports, _, _ := testBus(3, cfg)
		for i := 0; i < 3; i++ {
			b.Request(&Txn{Type: TxnUpgrade, Addr: uint64(0x1000 * (i + 1)), Src: i})
		}
		run(b, 0, 4) // grants at cycles 0, 2, 4 under occupancy 2
		grantCycle := func(node int) uint64 {
			if len(ports[node].granted) != 1 {
				t.Fatalf("arb=%d: node %d granted %d times", arb, node, len(ports[node].granted))
			}
			return ports[node].granted[0].doneAt // doneAt = grant + AddrLatency for upgrades
		}
		first := arb % 3
		for k := 0; k < 3; k++ {
			node := (first + k) % 3
			want := uint64(2*k) + uint64(fastCfg().AddrLatency)
			if got := grantCycle(node); got != want {
				t.Fatalf("arb=%d: node %d doneAt = %d, want %d", arb, node, got, want)
			}
		}
	}
}

func TestArbStartNegativeNormalizes(t *testing.T) {
	cfg := fastCfg()
	cfg.ArbStart = -3
	if got := cfg.withDefaults().ArbStart; got != 0 {
		t.Fatalf("negative ArbStart normalized to %d, want 0", got)
	}
}

func TestDataNetworkOccupancyContends(t *testing.T) {
	cfg := fastCfg() // data occupancy 3, mem latency 10, addr occ 2
	b, ports, _, _ := testBus(2, cfg)
	b.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	b.Request(&Txn{Type: TxnRead, Addr: 0x2000, Src: 0})
	run(b, 0, 100)
	if len(ports[0].completed) != 2 {
		t.Fatalf("completions = %d", len(ports[0].completed))
	}
	// First: grant@0, data start 0, done 10. Second: grant@2, data
	// network free at 3, done 13.
	d0 := ports[0].completed[0]
	d1 := ports[0].completed[1]
	if d0.doneAt != 10 || d1.doneAt != 13 {
		t.Fatalf("doneAt = %d,%d; want 10,13", d0.doneAt, d1.doneAt)
	}
}

func TestIdle(t *testing.T) {
	b, _, _, _ := testBus(1, fastCfg())
	if !b.Idle() {
		t.Fatal("fresh bus not idle")
	}
	b.Request(&Txn{Type: TxnUpgrade, Addr: 0x1000, Src: 0})
	if b.Idle() {
		t.Fatal("bus with queued txn reported idle")
	}
	run(b, 0, 10)
	if !b.Idle() {
		t.Fatal("bus not idle after completion")
	}
}

func TestDefaultConfigMatchesPaperTable1(t *testing.T) {
	d := DefaultConfig()
	if d.AddrLatency != 200 || d.AddrOccupancy != 20 {
		t.Fatalf("address network %d/%d, want 200/20", d.AddrLatency, d.AddrOccupancy)
	}
	if d.MemLatency != 400 || d.DataOccupancy != 50 {
		t.Fatalf("data network %d/%d, want 400/50", d.MemLatency, d.DataOccupancy)
	}
}

func TestTwoOwnersLatchesError(t *testing.T) {
	b, ports, _, _ := testBus(3, fastCfg())
	var l mem.Line
	ports[1].snoopResp = SnoopReply{Data: &l}
	ports[2].snoopResp = SnoopReply{Data: &l}
	b.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	run(b, 0, 5)
	err := b.Err()
	if err == nil {
		t.Fatal("two suppliers must latch a protocol-invariant error")
	}
	if !strings.Contains(err.Error(), "two owners") {
		t.Fatalf("error %q does not name the two-owner violation", err)
	}
	// The latch holds the first violation; the fabric must not panic or
	// overwrite it on later cycles.
	run(b, 5, 10)
	if b.Err() != err {
		t.Fatalf("error latch overwritten: %v -> %v", err, b.Err())
	}
}
