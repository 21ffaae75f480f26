// Package bus models the coherent interconnect of the simulated
// multiprocessor: a snooping, serialized address network (bus) plus a
// crossbar data network, following the Gigaplane-XB-style organization
// of the paper's Table 1.
//
// The address bus is the coherence serialization point: transactions
// are granted one at a time (round-robin arbitration, fixed occupancy
// per transaction) and every other node snoops a transaction at its
// grant instant, performing its protocol state change and contributing
// to the combined snoop response. This "atomic address phase"
// simplification preserves every effect the paper studies — validate
// timeliness, upgrade races, verification latency for LVP — while
// keeping data transfers (memory or cache-to-cache) realistically slow
// and contended on a separate network.
//
// The combined response carries the shared/owned signals of a MOESI
// bus plus the paper's *useful snoop response* overload: on
// ReadX/Upgrade transactions, Shared=true means some remote node held
// a valid copy (asserted by S/E/O/M holders, withheld by
// Validate_Shared holders under E-MESTI) — the distributed training
// signal for the useful-validate predictor (§2.3–2.4).
package bus

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"tssim/internal/mem"
	"tssim/internal/stats"
	"tssim/internal/trace"
)

// TxnType enumerates address-bus transaction types.
type TxnType uint8

// Transaction types. Validate is MESTI's addition: an address-only
// broadcast announcing that a line has reverted to its previous
// globally visible value.
const (
	TxnRead      TxnType = iota // read shared copy
	TxnReadX                    // read exclusive (RWITM)
	TxnUpgrade                  // S/O -> M permission upgrade, no data
	TxnWriteback                // dirty eviction to memory
	TxnValidate                 // MESTI validate broadcast
	txnTypeCount
)

// String returns the lower-case transaction name used in counter keys:
// trace's, which labels the transaction types its bus events carry.
func (t TxnType) String() string { return trace.TxnName(uint8(t)) }

// Txn is one address-bus transaction. The requester fills the request
// fields; the bus fills the response fields at grant time and delivers
// the completed transaction back through Port.CompleteTxn.
type Txn struct {
	Type TxnType
	Addr uint64 // line-aligned
	Src  int    // requesting node id

	// WData carries the line payload for TxnWriteback, and the
	// reverted line value for TxnValidate, which snooping T-state
	// holders compare with their saved copy.
	WData mem.Line

	// Response fields, valid from grant time onward.
	Shared  bool     // combined shared/useful snoop response
	Owned   bool     // a remote cache supplied dirty data
	HasData bool     // Data is meaningful (Read/ReadX)
	Data    mem.Line // the returned line
	doneAt  uint64
	reqAt   uint64 // cycle the transaction entered its queue (latency accounting)
}

// Port is the interface every attached cache controller implements.
type Port interface {
	// GrantTxn fires on the requester at the moment its transaction
	// wins arbitration — the serialization point. The controller may
	// mutate the type (e.g. convert a stale Upgrade into a ReadX
	// after losing an upgrade race) or cancel the transaction
	// entirely (e.g. a validate whose line was snooped away while
	// queued) by returning false.
	GrantTxn(t *Txn) bool

	// SnoopTxn observes another node's granted transaction,
	// performs the required state change, and returns the node's
	// snoop response. A non-nil Data means this node owns the dirty
	// line and supplies it (cache-to-cache transfer).
	SnoopTxn(t *Txn) SnoopReply

	// CompleteTxn delivers the finished transaction (data arrived,
	// or address phase done for dataless types) to the requester.
	CompleteTxn(t *Txn)
}

// SnoopReply is one node's contribution to the combined response.
type SnoopReply struct {
	Shared bool      // assert the shared/useful line
	Data   *mem.Line // non-nil: this cache supplies the line
}

// Config gives the interconnect timing, in cycles. Zero values are
// replaced by DefaultConfig's.
type Config struct {
	AddrLatency   int // request grant -> dataless completion (address network min latency)
	AddrOccupancy int // cycles the address bus is busy per transaction
	MemLatency    int // grant -> data arrival from memory
	C2CLatency    int // grant -> data arrival cache-to-cache
	DataOccupancy int // data network occupancy per transfer
	JitterMax     int // uniform [0,JitterMax) added to data latencies

	// ArbStart rotates the initial round-robin arbitration pointer:
	// the first contended grant favors node ArbStart mod N instead of
	// node 0. It is a deterministic schedule-perturbation knob — the
	// litmus enumeration mode sweeps it to reorder same-cycle rival
	// requests without touching any latency — and has no effect on an
	// uncontended bus. Negative values are treated as 0.
	ArbStart int
}

// DefaultConfig mirrors the paper's Table 1 interconnect: address
// network minimum latency 200 cycles with 20-cycle occupancy;
// memory/cache-to-cache minimum latency 400 cycles with 50-cycle
// occupancy on the crossbar.
func DefaultConfig() Config {
	return Config{
		AddrLatency:   200,
		AddrOccupancy: 20,
		MemLatency:    400,
		C2CLatency:    400,
		DataOccupancy: 50,
		JitterMax:     0,
	}
}

// fillHold keeps a line's conflicting grants blocked for this many
// cycles after its data delivery: the receiving cache is writing the
// fill into its array and answering its core before it can service a
// snoop. Besides realism, this is what gives a store-conditional that
// just received its reservation line exclusively the handful of cycles
// it needs to perform — without it, queued rival requests are granted
// the cycle after delivery and contended LL/SC sequences never
// complete.
const fillHold = 8

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.AddrLatency <= 0 {
		c.AddrLatency = d.AddrLatency
	}
	if c.AddrOccupancy <= 0 {
		c.AddrOccupancy = d.AddrOccupancy
	}
	if c.MemLatency <= 0 {
		c.MemLatency = d.MemLatency
	}
	if c.C2CLatency <= 0 {
		c.C2CLatency = d.C2CLatency
	}
	if c.DataOccupancy <= 0 {
		c.DataOccupancy = d.DataOccupancy
	}
	if c.ArbStart < 0 {
		c.ArbStart = 0
	}
	return c
}

// busyLine is one entry of the busy-line set: a line address with a
// granted data transfer and the cycle its fill hold ends (delivery +
// fillHold), the first cycle a conflicting grant may take the line.
type busyLine struct {
	addr  uint64
	until uint64
}

// Interconnect kinds as accepted by NewInterconnect and the CLIs'
// -interconnect flag.
const (
	KindBus       = "bus"
	KindSplitBus  = "splitbus"
	KindDirectory = "directory"
)

// maxOutstanding is the split-transaction bus's in-flight transaction
// bound.
const maxOutstanding = 8

// kinds is the one list of fabric kinds, in presentation order, with
// the two things a kind varies (see Bus.maxInflight). The directory
// also keeps per-line sharer state (Bus.dir).
var kinds = []struct {
	name        string
	maxInflight int
	grant       func(b *Bus, t *Txn, now uint64)
}{
	{KindBus, 0, (*Bus).grant},
	{KindSplitBus, maxOutstanding, (*Bus).grantSplit},
	{KindDirectory, 0, (*Bus).grantDir},
}

// Kinds lists the selectable fabric kinds in presentation order.
func Kinds() []string {
	names := make([]string, len(kinds))
	for i, k := range kinds {
		names[i] = k.name
	}
	return names
}

// kindIndex returns the named kind's row in kinds, -1 for an unknown
// name. The empty name is the atomic snoop bus.
func kindIndex(kind string) int {
	for i, k := range kinds {
		if k.name == kind || kind == "" && k.name == KindBus {
			return i
		}
	}
	return -1
}

// ValidKind reports whether kind names a selectable fabric ("" is the
// atomic-bus default). CLIs use it to reject -interconnect typos before
// constructing a machine.
func ValidKind(kind string) bool { return kindIndex(kind) >= 0 }

// Bus is the coherence fabric: the serialization point for coherence
// transactions plus snoop/probe delivery and the combined response.
// Every kind honors the contract the protocol layers and the checker
// were written against:
//
//   - Grant order is the machine-wide serialization order. The
//     requester's GrantTxn fires at the grant instant and may rewrite
//     or cancel the transaction; remote state transitions happen
//     during the same instant via SnoopTxn on the probed nodes.
//   - The combined response (Shared/Owned/Data) is built from the
//     replies of exactly the nodes the transaction was delivered to; a
//     kind may skip only nodes that provably hold no protocol-relevant
//     state for the line (the directory's structural-identity
//     argument, DESIGN.md §9, "The directory").
//   - OnSerialized fires once per successful grant, after every state
//     transition and memory side effect — where internal/check hangs.
//   - NextEvent never overestimates; SetOracle audits it.
type Bus struct {
	cfg    Config
	memory *mem.Memory
	rng    *rand.Rand
	tr     *trace.Tracer
	now    uint64 // last ticked cycle (request timestamping)

	// Pre-resolved counter handles: grants happen every few cycles,
	// so the per-type names are interned once at construction instead
	// of concatenated per grant.
	cntTxn     [txnTypeCount]stats.Counter
	cntAborted [txnTypeCount]stats.Counter
	cntC2C     stats.Counter
	cntMem     stats.Counter

	// Latency histograms, shared through counters: arbitration +
	// queueing wait (request to grant) and full miss service
	// (request to data delivery).
	hWait *stats.Hist
	hMiss *stats.Hist

	ports    []Port
	queues   [][]*Txn // per-node pending requests, FIFO
	rr       int      // round-robin arbitration pointer
	addrFree uint64   // first cycle the address bus is free
	dataFree uint64   // first cycle the data network is free

	inflight []*Txn // granted, awaiting completion delivery

	// free recycles completed transactions (see NewTxn).
	free []*Txn

	// busy tracks lines with a granted data transfer whose delivery
	// or fill hold is still pending. A transaction to such a line is
	// held in its queue until the hold ends: the requester logically
	// owns the line from its grant (bus order) but has no data to
	// supply to a snoop yet. Real protocols cover this window with
	// transient states and retry responses; holding the grant is the
	// equivalent, simpler serialization. A line is never busy twice
	// (its queue heads are not granted), and a handful of transfers
	// are in flight at once, so a linear-scanned slice beats a map.
	busy []busyLine

	// The two things a kind varies: the bound on granted transactions
	// awaiting completion, past which address grants stall (0 = none),
	// and the grant function — who is probed, what the directory
	// records, when the data phase ends.
	maxInflight int
	grantFn     func(b *Bus, t *Txn, now uint64)

	// dir is the directory's per-line sharer state (nil on the snoop
	// buses), cntProbes the probes it delivered.
	dir       map[uint64]*dirLine
	cntProbes stats.Counter

	// onSerialized, when non-nil, observes every granted transaction
	// *after* the snoop phase and memory side effects — i.e. at the
	// instant the machine-wide state transition is complete. The
	// coherence invariant checker (internal/check) hangs here.
	onSerialized func(now uint64, t *Txn)

	// err latches the first fabric-level protocol violation (e.g. two
	// nodes supplying dirty data for one line). The run loop polls Err
	// and fails the run with a post-mortem instead of the fabric
	// panicking — a protocol bug in one cell must not kill a whole -j
	// worker pool.
	err error

	// horizon is the standing one (see NextEvent), 0 when none stands;
	// skipped counts the ticks the fast path answered from it. audit,
	// when non-nil, runs those ticks and checks them (see SetOracle).
	horizon uint64
	skipped uint64
	audit   *error
}

// NewInterconnect builds the named fabric kind over the given backing
// memory; the empty name selects the atomic snoop bus. counters may be
// shared with other components; rng drives latency jitter and may be
// nil when JitterMax is zero.
func NewInterconnect(kind string, cfg Config, memory *mem.Memory, counters *stats.Counters, rng *rand.Rand) (*Bus, error) {
	i := kindIndex(kind)
	if i < 0 {
		return nil, fmt.Errorf("bus: unknown interconnect %q (have %s)", kind, strings.Join(Kinds(), "|"))
	}
	if counters == nil {
		counters = stats.NewCounters()
	}
	c := cfg.withDefaults()
	if c.JitterMax > 0 && rng == nil {
		panic("bus: jitter requested without rng")
	}
	b := &Bus{cfg: c, memory: memory, rng: rng, rr: c.ArbStart,
		maxInflight: kinds[i].maxInflight, grantFn: kinds[i].grant,
		cntC2C: counters.Counter("bus/data/c2c"),
		cntMem: counters.Counter("bus/data/mem"),
		hWait:  counters.Hist("lat/bus_wait"),
		hMiss:  counters.Hist("lat/miss_service")}
	for ty := TxnType(0); ty < txnTypeCount; ty++ {
		b.cntTxn[ty] = counters.Counter("bus/txn/" + ty.String())
		b.cntAborted[ty] = counters.Counter("bus/aborted/" + ty.String())
	}
	if kinds[i].name == KindDirectory {
		b.dir = make(map[uint64]*dirLine)
		b.cntProbes = counters.Counter("bus/dir/probes")
	}
	return b, nil
}

// NewTxn returns a zeroed transaction, reusing one recycled after a
// previous completion when available. Controllers on the steady-state
// path allocate through this instead of &Txn{} so the cycle loop stays
// allocation-free; the bus reclaims the transaction after CompleteTxn
// returns (or after a grant-time abort), so the requester must not
// retain the pointer past that point.
func (b *Bus) NewTxn() *Txn {
	if n := len(b.free); n > 0 {
		t := b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
		*t = Txn{}
		return t
	}
	return &Txn{}
}

func (b *Bus) recycle(t *Txn) { b.free = append(b.free, t) }

// SetTracer attaches the event tracer (nil disables tracing).
func (b *Bus) SetTracer(tr *trace.Tracer) { b.tr = tr }

// OnSerialized registers an observer of every successfully granted
// transaction, called after the snoop phase and any memory side
// effects — the point where the transaction's machine-wide state
// transition is complete. Nil disables the hook.
func (b *Bus) OnSerialized(fn func(now uint64, t *Txn)) { b.onSerialized = fn }

// LineBusy reports whether the line containing addr has an in-flight
// data transfer (grant issued, delivery or fill hold pending). While
// busy, custody of the line's current value may rest in the in-flight
// transaction rather than any cache or memory.
func (b *Bus) LineBusy(addr uint64) bool { return b.lineBusy(mem.LineAddr(addr)) }

// SetOracle makes the fabric audit its horizon on the every-cycle loop
// (sim.Config.NoFastForward): it runs the ticks before the standing
// horizon that the fast path skips, and one that ends a fill hold,
// arbitrates or delivers is a violation. The first violation
// machine-wide goes to *violation, the oracles' shared latch.
func (b *Bus) SetOracle(violation *error) { b.audit = violation }

// SkippedTicks counts the ticks the fabric answered from its standing
// horizon instead of running (always 0 on an oracle).
func (b *Bus) SkippedTicks() uint64 { return b.skipped }

// Attach registers a controller and returns its node id. The
// directory's sharer vector bounds its node count.
func (b *Bus) Attach(p Port) int {
	if b.dir != nil && len(b.ports) >= dirMaxNodes {
		panic(fmt.Sprintf("directory: sharer vector supports at most %d nodes", dirMaxNodes))
	}
	b.ports = append(b.ports, p)
	b.queues = append(b.queues, nil)
	return len(b.ports) - 1
}

// Request enqueues a transaction from its source node.
func (b *Bus) Request(t *Txn) {
	if t.Src < 0 || t.Src >= len(b.ports) {
		panic(fmt.Sprintf("bus: request from unattached node %d", t.Src))
	}
	t.Addr = mem.LineAddr(t.Addr)
	t.reqAt = b.now
	b.queues[t.Src] = append(b.queues[t.Src], t)
	b.horizon = 0
}

// Idle reports whether no transaction is queued or in flight.
func (b *Bus) Idle() bool {
	for _, q := range b.queues {
		if len(q) > 0 {
			return false
		}
	}
	return len(b.inflight) == 0
}

func (b *Bus) jitter() uint64 {
	if b.cfg.JitterMax <= 0 {
		return 0
	}
	return uint64(b.rng.Intn(b.cfg.JitterMax))
}

// Tick advances the interconnect one cycle: ends the fill holds due,
// possibly grants one transaction and delivers any completions due.
// Before the standing horizon it can do none of these, so it returns at
// once unless it is the oracle.
func (b *Bus) Tick(now uint64) {
	b.now = now // first: a Request this cycle is stamped with it
	horizon := b.NextEvent(now)
	if now < horizon && b.audit == nil {
		b.skipped++
		return
	}
	released := b.pruneBusy(now)
	arb := -1 // the node whose queue head was arbitrated, if any
	var arbType TxnType
	var arbAddr uint64
	if now >= b.addrFree && b.hasSlot() {
		if t := b.nextRequest(); t != nil {
			arb, arbType, arbAddr = t.Src, t.Type, t.Addr
			b.grantFn(b, t, now)
		}
	}
	delivered := b.deliver(now)
	// Only the oracle ticks before the horizon.
	if now < horizon && (released > 0 || arb >= 0 || delivered > 0) && *b.audit == nil {
		what := ""
		if arb >= 0 {
			what = fmt.Sprintf("; arbitrated node %d %s %#x", arb, arbType, arbAddr)
		}
		*b.audit = fmt.Errorf("fabric cycle %d: horizon %d violated: released %d holds, delivered %d%s", now, horizon, released, delivered, what)
	}
}

// hasSlot reports whether another transaction may be granted under the
// kind's in-flight bound.
func (b *Bus) hasSlot() bool {
	return b.maxInflight == 0 || len(b.inflight) < b.maxInflight
}

// NextEvent returns the standing horizon: the earliest cycle at which
// the bus can change observable state. Only a Request or the bus's own
// tick changes what derive reads, so a horizon stands until a Request
// drops it or a tick reaches it; then the next call derives a new one.
// SetOracle audits it.
func (b *Bus) NextEvent(now uint64) uint64 {
	if b.horizon <= now {
		b.horizon = b.derive(now)
	}
	return b.horizon
}

// derive computes the horizon from scratch: the next completion
// delivery, the next fill-hold end, or the next possible grant when a
// grantable request is queued. It returns now when the next Tick would
// act immediately, and ^uint64(0) when the bus is fully idle. Every
// grantable queue head waits for the same addrFree, so the first one
// found settles the grant term. Queues whose head targets a busy line
// need no term, nor does any queue while the in-flight bound is
// reached: they unblock only at a delivery or hold end, both already in
// the horizon. An in-flight transfer's until is later than its doneAt,
// so it never lowers the horizon.
func (b *Bus) derive(now uint64) uint64 {
	next := ^uint64(0)
	for _, t := range b.inflight {
		next = min(next, t.doneAt)
	}
	for _, l := range b.busy {
		next = min(next, l.until)
	}
	if !b.hasSlot() {
		return next
	}
	for _, q := range b.queues {
		if len(q) == 0 || b.lineBusy(q[0].Addr) {
			continue
		}
		if b.addrFree <= now {
			return now
		}
		return min(next, b.addrFree)
	}
	return next
}

func (b *Bus) lineBusy(addr uint64) bool {
	for _, l := range b.busy {
		if l.addr == addr {
			return true
		}
	}
	return false
}

// pruneBusy ends the fill holds due and returns how many it ended.
func (b *Bus) pruneBusy(now uint64) int {
	out := b.busy[:0]
	for _, l := range b.busy {
		if l.until > now {
			out = append(out, l)
		}
	}
	ended := len(b.busy) - len(out)
	b.busy = out
	return ended
}

// nextRequest pops the next transaction under round-robin arbitration,
// skipping nodes whose head transaction targets a line with an
// in-flight data transfer (per-node FIFO is preserved; only whole
// queues are skipped).
func (b *Bus) nextRequest() *Txn {
	n := len(b.queues)
	for i := 0; i < n; i++ {
		node := (b.rr + i) % n
		if len(b.queues[node]) == 0 {
			continue
		}
		q := b.queues[node]
		t := q[0]
		if b.lineBusy(t.Addr) {
			continue
		}
		// Pop by sliding elements down rather than reslicing the
		// front: the backing array keeps its full capacity, so the
		// queue never reallocates in steady state.
		copy(q, q[1:])
		q[len(q)-1] = nil
		b.queues[node] = q[:len(q)-1]
		b.rr = (node + 1) % n
		return t
	}
	return nil
}

// failf latches the first fabric-level protocol violation; see Err.
func (b *Bus) failf(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Err returns the first latched fabric-level protocol violation, nil
// while the fabric is healthy. A latched error means the machine state
// is no longer trustworthy; the run loop fails the run with a
// post-mortem as soon as it observes one.
func (b *Bus) Err() error { return b.err }

// acceptGrant runs the requester's grant callback and the shared
// accounting of a won arbitration: abort handling, counters, tracing,
// and the address-network occupancy charge. It returns false when the
// requester cancelled the transaction.
func (b *Bus) acceptGrant(t *Txn, now uint64) bool {
	if !b.ports[t.Src].GrantTxn(t) {
		b.cntAborted[t.Type].Inc()
		b.tr.Emit(trace.Event{Kind: trace.KBusAbort, Node: int32(t.Src), Addr: t.Addr, A: uint8(t.Type)})
		// An aborted transaction still consumed an arbitration
		// attempt but we do not charge bus occupancy for it: the
		// controller kills it before the address phase.
		b.recycle(t)
		return false
	}
	b.cntTxn[t.Type].Inc()
	b.hWait.Observe(now - t.reqAt)
	b.tr.Emit(trace.Event{Kind: trace.KBusGrant, Node: int32(t.Src), Addr: t.Addr, A: uint8(t.Type), Arg: now - t.reqAt})
	b.addrFree = now + uint64(b.cfg.AddrOccupancy)
	return true
}

// probe snoops one node and folds its reply into the combined
// response, returning the (at most one) supplying owner's line. Two
// suppliers is the protocol violation the combined response cannot
// express; it latches into Err and the first supplier wins so the
// machine stays mechanically consistent until the run loop aborts.
func (b *Bus) probe(id int, t *Txn, supplier *mem.Line) *mem.Line {
	r := b.ports[id].SnoopTxn(t)
	if r.Shared {
		t.Shared = true
	}
	if r.Data != nil {
		if supplier != nil {
			b.failf("interconnect: two owners supplied %#x (%s from node %d)", t.Addr, t.Type, t.Src)
			return supplier
		}
		supplier = r.Data
		t.Owned = true
	}
	return supplier
}

// snoopCombine is the broadcast snoop phase: every node but the
// requester observes the transaction in bus order and contributes its
// response.
func (b *Bus) snoopCombine(t *Txn) *mem.Line {
	var supplier *mem.Line
	for id := range b.ports {
		if id == t.Src {
			continue
		}
		supplier = b.probe(id, t, supplier)
	}
	return supplier
}

// sourceData fills a Read/ReadX payload from the supplying owner cache
// or from memory and returns the source's latency, jitter included.
func (b *Bus) sourceData(t *Txn, supplier *mem.Line) uint64 {
	t.HasData = true
	if supplier != nil {
		t.Data = *supplier
		b.cntC2C.Inc()
		return uint64(b.cfg.C2CLatency) + b.jitter()
	}
	t.Data = b.memory.ReadLine(t.Addr)
	b.cntMem.Inc()
	return uint64(b.cfg.MemLatency) + b.jitter()
}

// scheduleData sources a Read/ReadX payload, reserves a data-network
// slot at the grant instant, and stamps the delivery cycle: the
// transfer waits for a free slot, then takes the full latency.
func (b *Bus) scheduleData(t *Txn, supplier *mem.Line, now uint64) {
	lat := b.sourceData(t, supplier)
	start := now
	if b.dataFree > start {
		start = b.dataFree
	}
	b.dataFree = start + uint64(b.cfg.DataOccupancy)
	t.doneAt = start + lat
}

// finishGrant commits a granted transaction. The grant function has
// scheduled a Read/ReadX's transfer; a dataless transaction completes
// when its address phase does, plus whatever acknowledgement time the
// directory collects (a writeback's payload reaches memory here). Then
// in-flight tracking, the busy mark of a data transfer, whose doneAt is
// final here, and the serialization observer.
func (b *Bus) finishGrant(t *Txn, now, acks uint64) {
	switch t.Type {
	case TxnRead, TxnReadX:
	case TxnWriteback:
		b.memory.WriteLine(t.Addr, t.WData)
		fallthrough
	case TxnUpgrade, TxnValidate:
		t.doneAt = now + uint64(b.cfg.AddrLatency) + acks
	default:
		panic(fmt.Sprintf("bus: unknown txn type %d", t.Type))
	}
	b.inflight = append(b.inflight, t)
	if t.HasData {
		b.busy = append(b.busy, busyLine{addr: t.Addr, until: t.doneAt + fillHold})
	}
	if b.onSerialized != nil {
		b.onSerialized(now, t)
	}
}

func (b *Bus) grant(t *Txn, now uint64) {
	if !b.acceptGrant(t, now) {
		return
	}
	supplier := b.snoopCombine(t)
	if t.Type == TxnRead || t.Type == TxnReadX {
		b.scheduleData(t, supplier, now)
	}
	b.finishGrant(t, now, 0)
}

// grantSplit is grant with the split-transaction bus's data schedule:
// the payload claims the data bus only once it is ready (grant + source
// latency + jitter), holds it for DataOccupancy and completes when the
// transfer ends. Under load transfers serialize at data-ready time, not
// at the grant instant, which widens the grant-to-completion window
// the upgrade-steal path (internal/core snoop.go) must tolerate. With
// the maxOutstanding bound (a real split bus running out of
// transaction tags) this is all the split bus changes.
func (b *Bus) grantSplit(t *Txn, now uint64) {
	if !b.acceptGrant(t, now) {
		return
	}
	supplier := b.snoopCombine(t)
	if t.Type == TxnRead || t.Type == TxnReadX {
		start := now + b.sourceData(t, supplier)
		if b.dataFree > start {
			start = b.dataFree
		}
		b.dataFree = start + uint64(b.cfg.DataOccupancy)
		t.doneAt = b.dataFree
	}
	b.finishGrant(t, now, 0)
}

// deliver completes the in-flight transactions due and returns how
// many it completed.
func (b *Bus) deliver(now uint64) int {
	n := len(b.inflight)
	out := b.inflight[:0]
	for _, t := range b.inflight {
		if t.doneAt <= now {
			if t.HasData {
				b.hMiss.Observe(now - t.reqAt)
			}
			b.tr.Emit(trace.Event{Kind: trace.KBusDeliver, Node: int32(t.Src), Addr: t.Addr, A: uint8(t.Type), Arg: now - t.reqAt})
			b.ports[t.Src].CompleteTxn(t)
			b.recycle(t)
		} else {
			out = append(out, t)
		}
	}
	b.inflight = out
	return n - len(out)
}

// DebugString renders queues, in-flight transactions, busy lines and,
// on the directory, the entries with live state in address order
// (post-mortems).
func (b *Bus) DebugString() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bus addrFree=%d dataFree=%d inflight=%d\n", b.addrFree, b.dataFree, len(b.inflight))
	for n, q := range b.queues {
		for _, t := range q {
			fmt.Fprintf(&sb, "  queued node%d %s %#x\n", n, t.Type, t.Addr)
		}
	}
	for _, t := range b.inflight {
		fmt.Fprintf(&sb, "  inflight node%d %s %#x doneAt=%d\n", t.Src, t.Type, t.Addr, t.doneAt)
	}
	for _, l := range b.busy {
		fmt.Fprintf(&sb, "  busy %#x until=%d\n", l.addr, l.until)
	}
	addrs := make([]uint64, 0, len(b.dir))
	for addr := range b.dir {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	for _, addr := range addrs {
		if e := b.dir[addr]; e.owner >= 0 || e.sharers != 0 || e.tset != 0 {
			fmt.Fprintf(&sb, "  dir %#x owner=%d sharers=%#x tset=%#x\n", addr, e.owner, e.sharers, e.tset)
		}
	}
	return sb.String()
}
