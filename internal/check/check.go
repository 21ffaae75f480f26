// Package check is the machine-wide coherence oracle: an online
// checker attached to a running sim.System that validates, at every
// bus-grant serialization point, the invariants the paper's whole
// argument rests on.
//
//	SWMR        at most one M/E holder machine-wide; no M/E coexisting
//	            with S/O/VS copies elsewhere; at most one O owner; VS
//	            reachable only under E-MESTI and T only under MESTI.
//	Data value  a flat golden memory, updated at each store's
//	            serialization point, against which every retired
//	            (post-LVP-verify) load, every Read/ReadX payload, and
//	            every validate payload must match — the protocol may
//	            never re-install anything but the last globally
//	            visible value (§2.2–2.3).
//	Structural  L1 presence implies readable L2 permission (inclusion)
//	            and a used line (never VS); a frame's silent flag only
//	            on a dirty line and its revalidated-unused flag only on
//	            a readable one; no MSHR, buffered store or writeback
//	            survives quiesce.
//
// The checker is a pure observer: with it attached, cycle counts,
// counters, and final memory are bit-identical to an unchecked run.
// It taps three points: the bus's post-snoop OnSerialized hook (grant
// = serialization), each controller's CheckSink (stores to M/E lines
// perform with no bus transaction, so the golden memory must be
// maintained from performStore), and each core's OnCommitDebug hook
// (the retired-load oracle). The first violation is latched; the sim
// run loop converts it into a *sim.RunError carrying the standard
// post-mortem dump with the trace ring attached.
package check

import (
	"fmt"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/core"
	"tssim/internal/cpu"
	"tssim/internal/isa"
	"tssim/internal/mem"
)

// DefaultSweepEvery is the full-machine sweep stride in bus grants:
// every line known to the checker is re-validated this often (the
// per-grant check only covers the granted line).
const DefaultSweepEvery = 512

// Config tunes the checker.
type Config struct {
	// Tech is the machine's technique combination: MESTI makes T legal,
	// E-MESTI VS too.
	Tech core.Techniques
	// SweepEvery overrides the full-machine sweep stride in grants
	// (0 = DefaultSweepEvery).
	SweepEvery int
}

// pendingStore mirrors one entry of a controller's post-retirement
// store buffer: a store older than any load the core can still retire.
type pendingStore struct {
	addr uint64
	val  uint64
	isSC bool
}

// Checker holds the oracle state for one machine.
type Checker struct {
	cfg    Config
	b      *bus.Bus
	memory *mem.Memory
	nodes  []*core.Controller
	cores  []*cpu.Core

	// golden is the flat architectural memory: the last globally
	// visible value of every line, keyed by line address. Lines are
	// lazily copied from backing memory on first observation (sound
	// because memory can only diverge from golden after a store, and
	// every store touches golden first).
	golden map[uint64]*mem.Line

	// pending mirrors each node's post-retirement store buffer. A
	// retiring load must see the youngest same-word pending store of
	// its own node, else the golden value.
	pending [][]pendingStore

	// writeLog records, per node, the values a word held *before* each
	// store performed in the current cycle. During an SLE atomic
	// commit the region's stores all perform before its loads
	// bulk-retire, so a program-order load-before-store legitimately
	// retires with a value golden no longer holds; the log widens the
	// acceptance set to every value the word held this cycle.
	writeLog [][]logEntry
	logCycle []uint64

	grants     uint64
	sweepEvery uint64
	now        uint64
	violations int
	err        error
}

// logEntry is one same-cycle overwrite: the word's value before the
// store.
type logEntry struct {
	addr uint64
	old  uint64
}

// Attach builds a checker and hooks it into an assembled machine: the
// interconnect's OnSerialized hook, every controller's CheckSink, and
// every core's OnCommitDebug hook. Call before the first cycle. The
// checker is fabric-agnostic: it only needs the serialization stream
// and line-custody queries, which every kind of bus.Bus provides.
func Attach(cfg Config, b *bus.Bus, memory *mem.Memory, nodes []*core.Controller, cores []*cpu.Core) *Checker {
	if cfg.SweepEvery <= 0 {
		cfg.SweepEvery = DefaultSweepEvery
	}
	cfg.Tech = cfg.Tech.Effective()
	k := &Checker{
		cfg:        cfg,
		b:          b,
		memory:     memory,
		nodes:      nodes,
		cores:      cores,
		golden:     make(map[uint64]*mem.Line),
		pending:    make([][]pendingStore, len(nodes)),
		writeLog:   make([][]logEntry, len(nodes)),
		logCycle:   make([]uint64, len(nodes)),
		sweepEvery: uint64(cfg.SweepEvery),
	}
	b.OnSerialized(k.onSerialized)
	for _, n := range nodes {
		n.SetCheckSink(k)
	}
	for i, c := range cores {
		node := i
		c.OnCommitDebug = func(seq uint64, pc int, ins isa.Instr, src0, src1, result uint64) {
			k.onCommit(node, pc, ins, src0, result)
		}
	}
	return k
}

// failf latches the first violation (later ones only bump the count:
// once the machine diverges, follow-on noise is not informative).
func (k *Checker) failf(format string, args ...any) {
	k.violations++
	if k.err == nil {
		k.err = fmt.Errorf("coherence check: cycle %d: %s", k.now, fmt.Sprintf(format, args...))
	}
}

// Err returns the first latched violation, nil while the machine is
// clean.
func (k *Checker) Err() error { return k.err }

// Violations returns the number of violations observed (first one
// latched into Err).
func (k *Checker) Violations() int { return k.violations }

// Tick advances the checker's clock and reports the latched violation,
// if any. The sim run loop calls it before every cycle it ticks; the
// checker is a pure observer driven by bus serialization events, so a
// cycle the fast-forward path skips would only have overwritten the
// clock the next Tick sets, and the checker bounds no skip.
func (k *Checker) Tick(now uint64) error {
	k.now = now
	return k.err
}

// goldenLine returns the golden copy of a line, lazily initializing
// from backing memory on first observation.
func (k *Checker) goldenLine(la uint64) *mem.Line {
	if l, ok := k.golden[la]; ok {
		return l
	}
	nl := new(mem.Line)
	*nl = k.memory.ReadLine(la)
	k.golden[la] = nl
	return nl
}

// ---------------------------------------------------------------------------
// CheckSink: the store-visibility tap
// ---------------------------------------------------------------------------

// StoreBuffered mirrors a store entering a node's store buffer.
func (k *Checker) StoreBuffered(node int, addr, val uint64, isSC bool) {
	k.pending[node] = append(k.pending[node], pendingStore{addr: addr, val: val, isSC: isSC})
}

// StoreDrained mirrors the buffer head leaving a node's store buffer.
func (k *Checker) StoreDrained(node int, addr uint64, performed bool) {
	q := k.pending[node]
	if len(q) == 0 {
		k.failf("node%d drained store %#x but the checker's buffer mirror is empty", node, addr)
		return
	}
	if q[0].addr != addr {
		k.failf("node%d drained store %#x but the mirror head is %#x (buffer reordered?)", node, addr, q[0].addr)
	}
	n := copy(q, q[1:])
	k.pending[node] = q[:n]
}

// StorePerformed updates the golden memory at the instant a store
// becomes globally visible, and cross-checks that the performing
// node's line agrees with golden word-for-word afterwards.
func (k *Checker) StorePerformed(node int, addr, val uint64) {
	la := mem.LineAddr(addr)
	g := k.goldenLine(la)
	if k.logCycle[node] != k.now {
		k.logCycle[node] = k.now
		k.writeLog[node] = k.writeLog[node][:0]
	}
	k.writeLog[node] = append(k.writeLog[node], logEntry{addr: addr, old: g.Word(mem.WordIndex(addr))})
	g.SetWord(mem.WordIndex(addr), val)
	if d, ok := k.nodes[node].LineData(la); !ok || !d.Equal(g) {
		k.failf("node%d performed store %#x=%d but its line diverges from the globally visible value\n  line:   %v\n  golden: %v",
			node, addr, val, d, *g)
	}
}

// ---------------------------------------------------------------------------
// Serialization-point checks
// ---------------------------------------------------------------------------

// onSerialized fires after every successful bus grant's snoop phase:
// the machine-wide transition for the transaction is complete, so the
// granted line must satisfy every invariant, and any data payload must
// be the last globally visible value.
func (k *Checker) onSerialized(now uint64, t *bus.Txn) {
	if k.err != nil {
		return
	}
	k.now = now
	la := t.Addr
	switch t.Type {
	case bus.TxnRead, bus.TxnReadX:
		// The fill captured at the serialization point is what the
		// requester will install; it must be the current value.
		if g := k.goldenLine(la); !t.Data.Equal(g) {
			k.failf("%s of %#x granted with a payload that is not the last globally visible value\n  payload: %v\n  golden:  %v",
				t.Type, la, t.Data, *g)
		}
	case bus.TxnValidate:
		// §2.2: a validate may only re-install the last globally
		// visible value — this is the data-value invariant the whole
		// temporal-silence argument rests on.
		if g := k.goldenLine(la); !t.WData.Equal(g) {
			k.failf("validate of %#x announces %v but the last globally visible value is %v",
				la, t.WData, *g)
		}
	}
	k.checkLine(la)
	k.grants++
	if k.grants%k.sweepEvery == 0 {
		k.Sweep()
	}
}

// checkLine validates every invariant for one line across the whole
// machine: SWMR, data agreement of readable copies with golden,
// L1⊆L2 inclusion, and — when no cache or in-flight transfer has
// custody — memory agreement with golden.
func (k *Checker) checkLine(la uint64) {
	var excl, owners, sharers, wbHolders int
	g := k.goldenLine(la)
	for id, n := range k.nodes {
		st := n.LineState(la)
		switch st {
		case core.StateM, core.StateE:
			excl++
		case core.StateO:
			owners++
		case core.StateS:
			sharers++
		case core.StateVS:
			sharers++
			if !k.cfg.Tech.EMESTI {
				k.failf("node%d holds %#x in VS without E-MESTI", id, la)
			}
		case core.StateT:
			if !k.cfg.Tech.MESTI {
				k.failf("node%d holds %#x in T without MESTI", id, la)
			}
		}
		if core.Readable(st) {
			if d, ok := n.LineData(la); !ok || !d.Equal(g) {
				k.failf("node%d holds %#x in %s with data diverging from the globally visible value\n  line:   %v\n  golden: %v",
					id, la, core.StateName(st), d, *g)
			}
		}
		if n.L1Holds(la) && (!core.Readable(st) || st == core.StateVS) {
			// VS means "not used since its validate", and the L1 is only
			// ever filled by a use.
			k.failf("node%d L1 holds %#x without readable, used L2 permission (L2 state %s)", id, la, core.StateName(st))
		}
		if n.WBInfo(la) > 0 {
			wbHolders++
		}
	}
	if excl > 1 {
		k.failf("SWMR violated: %d nodes hold %#x in M/E\n%s", excl, la, k.lineSummary(la))
	}
	if excl == 1 && owners+sharers > 0 {
		k.failf("SWMR violated: an M/E holder of %#x coexists with %d O and %d S/VS copies\n%s",
			la, owners, sharers, k.lineSummary(la))
	}
	if owners > 1 {
		k.failf("SWMR violated: %d owners (O) of %#x\n%s", owners, la, k.lineSummary(la))
	}
	// With no dirty holder, no evicted-dirty copy awaiting writeback,
	// and no in-flight data transfer, memory has custody of the line
	// and must hold the last globally visible value.
	if excl == 0 && owners == 0 && wbHolders == 0 && !k.b.LineBusy(la) {
		if m := k.memory.ReadLine(la); !m.Equal(g) {
			k.failf("memory holds a stale copy of %#x with no dirty owner anywhere\n  memory: %v\n  golden: %v\n%s",
				la, m, *g, k.lineSummary(la))
		}
	}
}

// lineSummary renders each node's state for a line (violation
// messages).
func (k *Checker) lineSummary(la uint64) string {
	s := ""
	for id, n := range k.nodes {
		s += fmt.Sprintf("  node%d state=%s wb=%d\n", id, core.StateName(n.LineState(la)), n.WBInfo(la))
	}
	return s
}

// Sweep re-validates every line the checker knows about: the golden
// set plus every allocated L2 frame, whose flags it holds against the
// frame's state on the way. The per-grant check covers only the granted
// line, so the sweep bounds how long a latent violation on a quiet line
// can hide.
func (k *Checker) Sweep() {
	seen := make(map[uint64]struct{}, len(k.golden)+64)
	for la := range k.golden {
		seen[la] = struct{}{}
	}
	for id, n := range k.nodes {
		n.ForEachL2(func(l *cache.Line) {
			seen[l.Addr] = struct{}{}
			if l.Flags&core.FlagSilent != 0 && !core.Dirty(l.State) {
				k.failf("node%d frame %#x is flagged temporally silent in %s: only the dirty owner's line can have reverted",
					id, l.Addr, core.StateName(l.State))
			}
			if l.Flags&core.FlagRevalidated != 0 && !core.Readable(l.State) {
				// Set on S/VS; a fill or an upgrade granted before the
				// first load carries it into E/M/O, never into I/T.
				k.failf("node%d frame %#x is flagged revalidated-and-unused in %s: the flag dies with the permission",
					id, l.Addr, core.StateName(l.State))
			}
		})
		n.ForEachWB(func(la uint64) { seen[la] = struct{}{} })
	}
	for la := range seen {
		if k.err != nil {
			return
		}
		k.checkLine(la)
	}
}

// Quiesce runs the end-of-run checks once the machine reports itself
// drained (all cores halted, bus idle, store buffers empty): no leaked
// MSHRs, no stranded writebacks or mirrored stores, and a final full
// sweep. Returns the first violation, including any latched earlier.
func (k *Checker) Quiesce() error {
	for id, n := range k.nodes {
		if in := n.MSHRsInUse(); in != 0 {
			k.failf("node%d leaks %d MSHRs at quiesce:\n%s", id, in, n.DebugMSHRs())
		}
		n.ForEachWB(func(la uint64) {
			k.failf("node%d strands %#x in its writeback buffer at quiesce", id, la)
		})
		if len(k.pending[id]) != 0 {
			k.failf("node%d has %d stores in the checker's buffer mirror at quiesce (head %#x)",
				id, len(k.pending[id]), k.pending[id][0].addr)
		}
	}
	k.Sweep()
	return k.err
}

// ---------------------------------------------------------------------------
// Retired-load oracle
// ---------------------------------------------------------------------------

// onCommit checks every retiring load's value against the node-local
// view: the youngest same-word store still pending in the node's store
// buffer, else the golden memory. This is sound because (a) buffered
// stores are all older than any retiring load (in-order retirement),
// and (b) any remote store that changes golden is serialized by an
// invalidating bus transaction whose snoop squashes this core's
// not-yet-retired loads of the line — and the bus ticks before cores
// commit within a cycle.
func (k *Checker) onCommit(node, pc int, ins isa.Instr, src0, result uint64) {
	if k.err != nil {
		return
	}
	if ins.Op != isa.OpLd && ins.Op != isa.OpLL {
		return
	}
	addr := isa.EffAddr(ins, src0)
	q := k.pending[node]
	for i := len(q) - 1; i >= 0; i-- {
		if q[i].addr != addr {
			continue
		}
		if q[i].isSC {
			// An unresolved SC blocks younger loads of its word from
			// issuing and retires before them; it can never still be
			// pending when one retires.
			k.failf("node%d retired a load of %#x past an unresolved store-conditional to the same word", node, addr)
			return
		}
		if result != q[i].val {
			k.failf("node%d retired load pc=%d of %#x with value %d, but its own pending store wrote %d",
				node, pc, addr, result, q[i].val)
		}
		return
	}
	want := k.goldenLine(mem.LineAddr(addr)).Word(mem.WordIndex(addr))
	if result == want {
		return
	}
	// SLE bulk retire: the region's stores performed earlier this
	// cycle, before its loads retire, so a program-order
	// load-before-store sees a value this word held earlier in the
	// cycle; and a region load of the elided lock observes the acquire
	// value that never performed at all.
	if k.logCycle[node] == k.now {
		for _, w := range k.writeLog[node] {
			if w.addr == addr && w.old == result {
				return
			}
		}
	}
	if a, v, ok := k.cores[node].ElidedLockValue(); ok && a == addr && result == v {
		return
	}
	k.failf("node%d retired load pc=%d of %#x with value %d, but the globally visible value is %d",
		node, pc, addr, result, want)
}
