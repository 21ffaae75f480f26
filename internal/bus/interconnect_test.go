package bus

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"tssim/internal/mem"
	"tssim/internal/stats"
)

func testSplit(nports int, cfg Config) (*Bus, []*fakePort, *mem.Memory) {
	b, ports, m, _ := testFabric(KindSplitBus, nports, cfg)
	return b, ports, m
}

func testDir(nports int, cfg Config) (*Bus, []*fakePort, *mem.Memory) {
	b, ports, m, _ := testFabric(KindDirectory, nports, cfg)
	return b, ports, m
}

func TestInterconnectFactory(t *testing.T) {
	for _, kind := range append([]string{""}, Kinds()...) {
		ic, err := NewInterconnect(kind, fastCfg(), mem.New(), nil, nil)
		if err != nil {
			t.Fatalf("kind %q: %v", kind, err)
		}
		if ic == nil {
			t.Fatalf("kind %q: nil fabric", kind)
		}
		if !ValidKind(kind) {
			t.Fatalf("ValidKind(%q) = false", kind)
		}
	}
	if _, err := NewInterconnect("hypercube", fastCfg(), mem.New(), nil, nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if ValidKind("hypercube") {
		t.Fatal("ValidKind accepted unknown kind")
	}
}

// The split bus arbitrates the data network at payload-ready time: a
// lone read pays grant + source latency, then occupies the data bus.
func TestSplitBusSingleReadLatency(t *testing.T) {
	sb, ports, _ := testSplit(2, fastCfg())
	sb.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	run(sb, 0, 30)
	if len(ports[0].completed) != 1 {
		t.Fatalf("completions = %d", len(ports[0].completed))
	}
	// grant@0, payload ready at 0+10, transfer ends 10+3.
	if got := ports[0].completed[0].doneAt; got != 13 {
		t.Fatalf("doneAt = %d, want 13", got)
	}
}

// Back-to-back reads pipeline: the second address phase overlaps the
// first transfer, and the second transfer queues behind the first on
// the data network.
func TestSplitBusDataPipelines(t *testing.T) {
	sb, ports, _ := testSplit(2, fastCfg())
	sb.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	sb.Request(&Txn{Type: TxnRead, Addr: 0x2000, Src: 0})
	run(sb, 0, 40)
	if len(ports[0].completed) != 2 {
		t.Fatalf("completions = %d", len(ports[0].completed))
	}
	d0, d1 := ports[0].completed[0].doneAt, ports[0].completed[1].doneAt
	// First: grant@0, ready 10, done 13. Second: grant@2, ready 12,
	// data bus free at 13, done 16.
	if d0 != 13 || d1 != 16 {
		t.Fatalf("doneAt = %d,%d; want 13,16", d0, d1)
	}
}

// maxOutstanding bounds in-flight transactions: address grants stall
// at capacity and resume as deliveries free slots; nothing is lost.
func TestSplitBusBoundedOutstanding(t *testing.T) {
	const nodes = 2 * maxOutstanding
	sb, ports, _ := testSplit(nodes, fastCfg())
	for i := 0; i < nodes; i++ {
		sb.Request(&Txn{Type: TxnRead, Addr: uint64(0x1000 * (i + 1)), Src: i})
	}
	maxInflight := 0
	for now := uint64(0); now <= 300; now++ {
		sb.Tick(now)
		if n := len(sb.inflight); n > maxInflight {
			maxInflight = n
		}
	}
	if maxInflight != maxOutstanding {
		t.Fatalf("max in-flight = %d, want exactly the bound %d", maxInflight, maxOutstanding)
	}
	for i, p := range ports {
		if len(p.completed) != 1 {
			t.Fatalf("node %d: %d completions, want 1", i, len(p.completed))
		}
	}
	if !sb.Idle() {
		t.Fatal("split bus not idle after drain")
	}
}

// At capacity the fast-forward horizon must not claim a grant can
// happen now: the next observable event is the oldest delivery.
func TestSplitBusNextEventAtCapacity(t *testing.T) {
	cfg := fastCfg()
	cfg.MemLatency = 100 // nothing is delivered before the bound is reached
	sb, _, _ := testSplit(maxOutstanding+1, cfg)
	for i := 0; i < maxOutstanding; i++ {
		sb.Request(&Txn{Type: TxnRead, Addr: uint64(0x1000 * (i + 1)), Src: i})
	}
	end := uint64(2 * maxOutstanding) // one grant per AddrOccupancy
	run(sb, 0, end)
	if n := len(sb.inflight); n != maxOutstanding {
		t.Fatalf("in flight = %d, want the bound %d", n, maxOutstanding)
	}
	sb.Request(&Txn{Type: TxnRead, Addr: 0x1000 * (maxOutstanding + 1), Src: maxOutstanding})
	want := uint64(cfg.MemLatency + cfg.DataOccupancy) // the first grant's delivery
	if got := sb.NextEvent(end + 1); got != want {
		t.Fatalf("NextEvent at capacity = %d, want %d (the delivery)", got, want)
	}
}

// snoops returns each port's snoop count (probe-set assertions).
func snoops(ports []*fakePort) []int {
	out := make([]int, len(ports))
	for i, p := range ports {
		out[i] = len(p.snooped)
	}
	return out
}

// A read of an uncached line probes nobody (broadcast would snoop
// N-1), and a subsequent read probes exactly the exclusive installer —
// the silent E->M window that forces owner tracking on clean-exclusive
// installs.
func TestDirectoryReadProbesOnlyOwner(t *testing.T) {
	d, ports, _ := testDir(8, fastCfg())
	d.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
	run(d, 0, 30)
	for i, n := range snoops(ports) {
		if n != 0 {
			t.Fatalf("uncached read probed node %d", i)
		}
	}
	if ports[0].completed[0].Shared {
		t.Fatal("first read must install exclusive (not shared)")
	}

	// Node 0 installed E and may have stored silently: simulate the M
	// supply on probe.
	var dirty mem.Line
	dirty.SetWord(0, 777)
	ports[0].snoopResp = SnoopReply{Shared: true, Data: &dirty}
	d.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 1})
	run(d, 31, 60)
	got := snoops(ports)
	if got[0] != 1 {
		t.Fatalf("owner not probed: %v", got)
	}
	for i := 2; i < 8; i++ {
		if got[i] != 0 {
			t.Fatalf("bystander %d probed: %v", i, got)
		}
	}
	c := ports[1].completed[0]
	if !c.Owned || c.Data.Word(0) != 777 {
		t.Fatalf("dirty data not delivered: owned=%v word0=%d", c.Owned, c.Data.Word(0))
	}
	// Supplier stays owner of record (M->O): a third read probes it
	// again.
	d.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 2})
	run(d, 61, 90)
	if n := len(ports[0].snooped); n != 2 {
		t.Fatalf("owner probed %d times, want 2", n)
	}
}

// An invalidating request probes every sharer and T-set member, pays
// ackPerTarget per probe, and moves the probed set to the T-set so
// later validates reach them.
func TestDirectoryInvalidationProbeSetAndAckTiming(t *testing.T) {
	d, ports, _ := testDir(8, fastCfg())
	now := uint64(0)
	phase := func(tx *Txn) uint64 {
		grant := now
		d.Request(tx)
		run(d, now, now+60)
		now += 61
		return grant
	}
	for i := 1; i <= 3; i++ {
		phase(&Txn{Type: TxnRead, Addr: 0x2000, Src: i})
	}
	before := snoops(ports)

	g := phase(&Txn{Type: TxnReadX, Addr: 0x2000, Src: 0})
	after := snoops(ports)
	for i := 1; i <= 3; i++ {
		if after[i] != before[i]+1 {
			t.Fatalf("sharer %d not probed: %v -> %v", i, before, after)
		}
	}
	for i := 4; i < 8; i++ {
		if after[i] != 0 {
			t.Fatalf("bystander %d probed", i)
		}
	}
	// Ack fan-in outlasts the memory transfer: doneAt = grant + addr
	// latency + 3 targets * ackPerTarget > grant + 10 mem latency.
	rx := ports[0].completed[len(ports[0].completed)-1]
	if want := g + 4 + 3*ackPerTarget; rx.doneAt != want {
		t.Fatalf("readx doneAt = %d, want %d (ack floor)", rx.doneAt, want)
	}
	e := d.dirEntry(0x2000)
	if e.owner != 0 || e.sharers != 1 || e.tset != 0b1110 {
		t.Fatalf("post-readx entry owner=%d sharers=%#x tset=%#x", e.owner, e.sharers, e.tset)
	}

	// Validate multicasts to the T-set only, same per-target ack cost.
	g = phase(&Txn{Type: TxnValidate, Addr: 0x2000, Src: 0})
	val := ports[0].completed[len(ports[0].completed)-1]
	if val.Type != TxnValidate {
		t.Fatalf("last completion %s, want validate", val.Type)
	}
	if want := g + 4 + 3*ackPerTarget; val.doneAt != want {
		t.Fatalf("validate doneAt = %d, want %d", val.doneAt, want)
	}
	if e.sharers != 0b1111 || e.tset != 0 {
		t.Fatalf("post-validate entry sharers=%#x tset=%#x", e.sharers, e.tset)
	}

	// A second validate has nobody left to reach: address latency only.
	g = phase(&Txn{Type: TxnValidate, Addr: 0x2000, Src: 0})
	val2 := ports[0].completed[len(ports[0].completed)-1]
	if want := g + 4; val2.doneAt != want {
		t.Fatalf("empty validate doneAt = %d, want %d", val2.doneAt, want)
	}
}

// A writeback moves the evictor to the T-set instead of forgetting it:
// it may still hold an LL reservation, so a later invalidating request
// must still probe (and kill) it.
func TestDirectoryWritebackKeepsEvictorProbeable(t *testing.T) {
	d, ports, m := testDir(8, fastCfg())
	d.Request(&Txn{Type: TxnRead, Addr: 0x3000, Src: 0})
	run(d, 0, 30)
	wb := &Txn{Type: TxnWriteback, Addr: 0x3000, Src: 0}
	wb.WData.SetWord(1, 42)
	d.Request(wb)
	run(d, 31, 60)
	if m.ReadWord(0x3008) != 42 {
		t.Fatal("writeback did not reach memory")
	}
	e := d.dirEntry(0x3000)
	if e.owner != -1 || e.sharers != 0 || e.tset != 1 {
		t.Fatalf("post-writeback entry owner=%d sharers=%#x tset=%#x", e.owner, e.sharers, e.tset)
	}
	d.Request(&Txn{Type: TxnReadX, Addr: 0x3000, Src: 1})
	run(d, 61, 90)
	if n := len(ports[0].snooped); n != 1 {
		t.Fatalf("evictor probed %d times, want 1 (reservation-kill window)", n)
	}
}

// The useful-snoop-response bit (E-MESTI's predictor training signal)
// must combine from probe replies only — a stale sharer mask must not
// synthesize it, or VS holders' withheld responses would be overridden
// and the validate predictor would train on fiction.
func TestDirectoryUsefulResponseFromRepliesOnly(t *testing.T) {
	d, ports, _ := testDir(8, fastCfg())
	now := uint64(0)
	phase := func(tx *Txn) {
		d.Request(tx)
		run(d, now, now+60)
		now += 61
	}
	phase(&Txn{Type: TxnRead, Addr: 0x4000, Src: 0})
	phase(&Txn{Type: TxnRead, Addr: 0x4000, Src: 1})

	// Node 1 is in the sharer mask but withholds the response (VS
	// semantics): the upgrade must observe Shared=false.
	phase(&Txn{Type: TxnUpgrade, Addr: 0x4000, Src: 0})
	up := ports[0].completed[len(ports[0].completed)-1]
	if up.Type != TxnUpgrade || up.Shared {
		t.Fatalf("upgrade %s shared=%v, want silent (reply-combined)", up.Type, up.Shared)
	}
	if n := len(ports[1].snooped); n != 1 {
		t.Fatalf("sharer probed %d times, want 1", n)
	}

	// Same shape with an asserting sharer: the bit passes through.
	phase(&Txn{Type: TxnRead, Addr: 0x5000, Src: 0})
	phase(&Txn{Type: TxnRead, Addr: 0x5000, Src: 1})
	ports[1].snoopResp = SnoopReply{Shared: true}
	phase(&Txn{Type: TxnUpgrade, Addr: 0x5000, Src: 0})
	up = ports[0].completed[len(ports[0].completed)-1]
	if !up.Shared {
		t.Fatal("asserting sharer's response lost")
	}
}

// Two probe replies supplying data is the same protocol violation on
// the directory as on the bus: latch, don't panic.
func TestDirectoryTwoOwnersLatchesError(t *testing.T) {
	d, ports, _ := testDir(4, fastCfg())
	now := uint64(0)
	phase := func(tx *Txn) {
		d.Request(tx)
		run(d, now, now+60)
		now += 61
	}
	phase(&Txn{Type: TxnRead, Addr: 0x6000, Src: 1})
	phase(&Txn{Type: TxnRead, Addr: 0x6000, Src: 2})
	var l mem.Line
	ports[1].snoopResp = SnoopReply{Data: &l}
	ports[2].snoopResp = SnoopReply{Data: &l}
	phase(&Txn{Type: TxnReadX, Addr: 0x6000, Src: 0})
	if err := d.Err(); err == nil || !strings.Contains(err.Error(), "two owners") {
		t.Fatalf("Err = %v, want two-owner latch", err)
	}
}

func TestDirectoryAttachBounded(t *testing.T) {
	d, _, _ := testDir(dirMaxNodes, fastCfg())
	defer func() {
		if recover() == nil {
			t.Fatalf("node %d accepted beyond the sharer-vector width", dirMaxNodes)
		}
	}()
	d.Attach(&fakePort{grantOK: true})
}

// Arbitration fairness beyond 4 ports: ArbStart picks the first
// contended winner mod N and rotation continues from there — the
// enumeration grid's arbitration knob must stay exact at 8 nodes.
func TestArbStartRotatesEightPorts(t *testing.T) {
	const n = 8
	for arb := 0; arb < n+2; arb++ {
		cfg := fastCfg()
		cfg.ArbStart = arb
		b, ports, _, _ := testBus(n, cfg)
		for i := 0; i < n; i++ {
			b.Request(&Txn{Type: TxnUpgrade, Addr: uint64(0x1000 * (i + 1)), Src: i})
		}
		run(b, 0, 2*n) // grants every AddrOccupancy=2 cycles
		first := arb % n
		for k := 0; k < n; k++ {
			node := (first + k) % n
			if len(ports[node].granted) != 1 {
				t.Fatalf("arb=%d: node %d granted %d times", arb, node, len(ports[node].granted))
			}
			want := uint64(2*k) + uint64(cfg.AddrLatency)
			if got := ports[node].granted[0].doneAt; got != want {
				t.Fatalf("arb=%d: node %d doneAt = %d, want %d", arb, node, got, want)
			}
		}
	}
}

// Broadcast snoop combining at 16 ports: all 15 remote sharers are
// snooped exactly once and one asserted Shared is enough; with every
// holder withholding (the all-VS abort case), the combined response
// stays silent.
func TestSnoopCombineFifteenSharers(t *testing.T) {
	b, ports, _, _ := testBus(16, fastCfg())
	for i := 1; i < 16; i++ {
		ports[i].snoopResp = SnoopReply{Shared: true}
	}
	b.Request(&Txn{Type: TxnReadX, Addr: 0x1000, Src: 0})
	run(b, 0, 30)
	for i := 1; i < 16; i++ {
		if len(ports[i].snooped) != 1 {
			t.Fatalf("port %d snooped %d times", i, len(ports[i].snooped))
		}
	}
	if !ports[0].completed[0].Shared {
		t.Fatal("15-sharer assertion lost in combining")
	}

	// All-VS: every holder withholds the useful response.
	b2, ports2, _, _ := testBus(8, fastCfg())
	b2.Request(&Txn{Type: TxnUpgrade, Addr: 0x2000, Src: 0})
	run(b2, 0, 30)
	if ports2[0].completed[0].Shared {
		t.Fatal("silent snoop round must combine to not-shared")
	}
	for i := 1; i < 8; i++ {
		if len(ports2[i].snooped) != 1 {
			t.Fatalf("port %d snooped %d times", i, len(ports2[i].snooped))
		}
	}
}

// The directory's post-mortem lists its live entries in address order,
// so two renderings of one failing machine are the same text.
func TestDirectoryDebugStringInAddressOrder(t *testing.T) {
	d, _, _ := testDir(4, fastCfg())
	const lines = 12
	for i := 0; i < lines; i++ {
		d.Request(&Txn{Type: TxnRead, Addr: uint64(0x1000 * (lines - i)), Src: i % 4})
	}
	run(d, 0, 200)
	dirLines := func() []string {
		var out []string
		for _, l := range strings.Split(d.DebugString(), "\n") {
			if strings.HasPrefix(l, "  dir ") {
				out = append(out, l)
			}
		}
		return out
	}
	first, second := dirLines(), dirLines()
	if len(first) != lines {
		t.Fatalf("%d live entries rendered, want %d:\n%s", len(first), lines, d.DebugString())
	}
	if !slices.Equal(first, second) {
		t.Fatalf("two renderings differ:\n%s\n--\n%s", strings.Join(first, "\n"), strings.Join(second, "\n"))
	}
	for i, l := range first {
		want := fmt.Sprintf("  dir %#x ", 0x1000*(i+1))
		if !strings.HasPrefix(l, want) {
			t.Fatalf("entry %d is %q, want it to start %q (address order)", i, l, want)
		}
	}
}

// A data transfer keeps its line busy from its grant until fillHold
// cycles after its delivery, on every kind: LineBusy says so after each
// tick, DebugString names the cycle the hold ends, and a rival read of
// the line queued behind it is granted exactly then.
func TestBusyWindowEndsFillHoldAfterDelivery(t *testing.T) {
	const addr = 0x1000
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			b, ports, _, _ := testFabric(kind, 2, fastCfg())
			b.Request(&Txn{Type: TxnRead, Addr: addr, Src: 0})
			g, d := -1, -1 // the read's grant and delivery cycles
			var busy []bool
			var dump string
			for now := 0; now < 100; now++ {
				b.Tick(uint64(now))
				if g < 0 && len(ports[0].granted) == 1 {
					g, dump = now, b.DebugString()
				}
				if d < 0 && len(ports[0].completed) == 1 {
					d = now
				}
				busy = append(busy, b.LineBusy(addr))
			}
			if g < 0 || d < 0 {
				t.Fatalf("read granted at %d, delivered at %d: it did not run", g, d)
			}
			end := d + fillHold
			for now, got := range busy {
				if want := now >= g && now < end; got != want {
					t.Fatalf("LineBusy after the tick of cycle %d is %v, want %v (grant %d, delivery %d)", now, got, want, g, d)
				}
			}
			if want := fmt.Sprintf("  busy %#x until=%d\n", addr, end); !strings.Contains(dump, want) {
				t.Fatalf("DebugString at the grant lacks %q:\n%s", want, dump)
			}

			b, ports, _, _ = testFabric(kind, 2, fastCfg())
			b.Request(&Txn{Type: TxnRead, Addr: addr, Src: 0})
			rg := -1
			for now := 0; now < 100 && rg < 0; now++ {
				b.Tick(uint64(now))
				if now == g {
					b.Request(&Txn{Type: TxnRead, Addr: addr, Src: 1})
				}
				if len(ports[1].granted) == 1 {
					rg = now
				}
			}
			if rg != end {
				t.Fatalf("rival read granted at %d, want %d (delivery %d + fillHold)", rg, end, d)
			}
		})
	}
}

// The fabric oracle keeps a standing horizon. A tick that releases a
// hold, delivers or arbitrates before it latches an error naming the
// cycle, the horizon and what moved; a Request drops the horizon, so
// the grant it makes possible is no violation.
func TestFabricAuditLocatesHorizonViolation(t *testing.T) {
	for _, row := range []struct {
		name string
		run  func(b *Bus) // requests, plants a horizon past the event, ticks through it
		want string       // the latched error, "" for none
	}{
		{"due hold release", func(b *Bus) {
			b.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
			run(b, 0, 10) // grant at 0, delivery at 10, fill hold until 18
			b.horizon = 30
			run(b, 11, 20)
		}, "fabric cycle 18: horizon 30 violated: released 1 holds, delivered 0"},
		{"due delivery", func(b *Bus) {
			b.Request(&Txn{Type: TxnRead, Addr: 0x1000, Src: 0})
			run(b, 0, 0)
			b.horizon = 20
			run(b, 1, 12)
		}, "fabric cycle 10: horizon 20 violated: released 0 holds, delivered 1"},
		{"grantable queue head", func(b *Bus) {
			b.Request(&Txn{Type: TxnUpgrade, Addr: 0x3000, Src: 1})
			b.horizon = 5
			run(b, 0, 2)
		}, "fabric cycle 0: horizon 5 violated: released 0 holds, delivered 0; arbitrated node 1 upgrade 0x3000"},
		{"a Request drops the standing horizon", func(b *Bus) {
			b.horizon = 5
			b.Request(&Txn{Type: TxnUpgrade, Addr: 0x3000, Src: 1})
			run(b, 0, 30)
		}, ""},
	} {
		t.Run(row.name, func(t *testing.T) {
			b, _, _, _ := testBus(2, fastCfg())
			var violation error
			b.SetOracle(&violation)
			row.run(b)
			got := ""
			if violation != nil {
				got = violation.Error()
			}
			if got != row.want {
				t.Fatalf("latched %q, want %q", got, row.want)
			}
		})
	}
}

// logPort logs every callback with the cycle it came at, and follows
// each completed read with an upgrade of its line, as a store behind a
// load miss would: a Request made inside the fabric's own tick.
type logPort struct {
	id  int
	b   *Bus
	now *uint64
	log *[]string
}

func (p *logPort) GrantTxn(t *Txn) bool { p.note("grant", t); return true }
func (p *logPort) SnoopTxn(t *Txn) SnoopReply {
	p.note("snoop", t)
	return SnoopReply{Shared: true}
}
func (p *logPort) CompleteTxn(t *Txn) {
	p.note("complete", t)
	if t.Type == TxnRead {
		p.b.Request(&Txn{Type: TxnUpgrade, Addr: t.Addr, Src: p.id})
	}
}
func (p *logPort) note(what string, t *Txn) {
	*p.log = append(*p.log, fmt.Sprintf("cycle %d node %d %s %s %#x", *p.now, p.id, what, t.Type, t.Addr))
}

// scriptedReq is one request of fabricScript: made at cycle at, after
// the fabric's tick, as a controller ticked after it would.
type scriptedReq struct {
	at   uint64
	src  int
	ty   TxnType
	addr uint64
}

// fabricScript holds a line busy (a second read behind a first), a
// writeback and a validate, and ends in a burst of twelve reads past
// the split bus's in-flight bound. The read at cycle 4 comes while
// the first two transfers are in flight and nothing is queued: a cycle
// before the horizon.
var fabricScript = []scriptedReq{
	{0, 0, TxnRead, 0x1000}, {0, 1, TxnRead, 0x2000},
	{4, 2, TxnRead, 0x1000},
	{5, 3, TxnWriteback, 0x3000},
	{25, 1, TxnValidate, 0x2000},
	{40, 3, TxnReadX, 0x1000}, {41, 2, TxnRead, 0x4000}, {41, 0, TxnUpgrade, 0x5000},
	{60, 0, TxnRead, 0x6000}, {60, 1, TxnRead, 0x7000}, {60, 2, TxnRead, 0x8000}, {60, 3, TxnRead, 0x9000},
	{61, 0, TxnRead, 0xa000}, {61, 1, TxnRead, 0xb000}, {61, 2, TxnRead, 0xc000}, {61, 3, TxnRead, 0xd000},
	{62, 0, TxnRead, 0xe000}, {62, 1, TxnRead, 0xf000}, {62, 2, TxnRead, 0x10000}, {62, 3, TxnRead, 0x11000},
}

// runScript drives a fabric of the kind with fabricScript from four
// logPorts until it drains, as the oracle or on the fast path. It
// returns the callback log, the two latency histograms, and the
// scripted cycles whose tick the fabric skipped.
func runScript(t *testing.T, kind string, oracle bool) (log []string, hists []stats.HistSnapshot, skippedAt []uint64, b *Bus) {
	t.Helper()
	b, _, _, ctrs := testFabric(kind, 0, fastCfg())
	var violation error
	if oracle {
		b.SetOracle(&violation)
	}
	var now uint64
	for i := 0; i < 4; i++ {
		p := &logPort{b: b, now: &now, log: &log}
		p.id = b.Attach(p)
	}
	next := 0
	for now = 0; now < 1000; now++ {
		before := b.SkippedTicks()
		b.Tick(now)
		for ; next < len(fabricScript) && fabricScript[next].at == now; next++ {
			r := fabricScript[next]
			if b.SkippedTicks() > before && !slices.Contains(skippedAt, now) {
				skippedAt = append(skippedAt, now)
			}
			b.Request(&Txn{Type: r.ty, Addr: r.addr, Src: r.src})
		}
		if next == len(fabricScript) && b.Idle() && len(b.busy) == 0 {
			break
		}
	}
	if next < len(fabricScript) || !b.Idle() {
		t.Fatalf("%s (oracle %v): script did not drain by cycle %d", kind, oracle, now)
	}
	if violation != nil {
		t.Fatalf("%s: %v", kind, violation)
	}
	for _, name := range []string{"lat/bus_wait", "lat/miss_service"} {
		hists = append(hists, ctrs.Hist(name).Snapshot())
	}
	return log, hists, skippedAt, b
}

// The fast path against its audited twin, one row per kind: the same
// request script must produce the same grants, snoops and completions
// at the same cycles and the same latency histograms, while the fast
// fabric skips the ticks before its horizon and the oracle skips none.
// A Request on a skipped cycle is stamped with that cycle: a Tick that
// returned before setting its clock would move lat/bus_wait.
func TestFastFabricMatchesOracle(t *testing.T) {
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			oLog, oHists, _, ob := runScript(t, kind, true)
			fLog, fHists, skippedAt, fb := runScript(t, kind, false)
			if !slices.Equal(oLog, fLog) {
				t.Fatalf("callback logs differ\noracle:\n%s\nfast:\n%s", strings.Join(oLog, "\n"), strings.Join(fLog, "\n"))
			}
			if !reflect.DeepEqual(oHists, fHists) {
				t.Fatalf("latency histograms differ\noracle: %+v\nfast:   %+v", oHists, fHists)
			}
			if ob.SkippedTicks() != 0 || fb.SkippedTicks() == 0 {
				t.Fatalf("skipped ticks: oracle %d, fast %d; want 0 and some", ob.SkippedTicks(), fb.SkippedTicks())
			}
			if !slices.Contains(skippedAt, 4) {
				t.Fatalf("the fast fabric ticked cycle 4 (skipped scripted cycles %v): the row does not test a Request on a skipped cycle", skippedAt)
			}
		})
	}
}

// BenchmarkBusTickBeforeHorizon is one fabric tick with eight
// transactions in flight, between their deliveries: what every node's
// in-flight miss costs per cycle until it lands.
func BenchmarkBusTickBeforeHorizon(b *testing.B) {
	cfg := fastCfg()
	cfg.MemLatency = 1 << 40 // nothing is delivered while the benchmark runs
	bus, _, _, _ := testBus(8, cfg)
	for i := 0; i < 8; i++ {
		bus.Request(&Txn{Type: TxnRead, Addr: uint64(0x1000 * (i + 1)), Src: i})
	}
	now := uint64(0)
	for ; len(bus.inflight) < 8; now++ {
		bus.Tick(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bus.Tick(now)
		now++
	}
	b.StopTimer()
	if len(bus.inflight) != 8 {
		b.Fatalf("%d in flight, want 8", len(bus.inflight))
	}
}
