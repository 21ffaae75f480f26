// Package trace is the structured event tracer of the simulator: a
// fixed-size ring of typed coherence events (bus grants and aborts,
// protocol state transitions, validate outcomes, LVP speculation, SLE
// elision) with an optional streaming sink. An event has one encoding,
// a JSON line (Event.AppendJSON): the JSONL sink writes it, and a
// post-mortem prints the ring's tail in it, so a post-mortem line can
// be found verbatim in the trace file.
//
// The tracer is built to cost nothing when absent: every component
// holds a *Tracer that may be nil, and Emit on a nil receiver returns
// immediately. Event is a fixed-size value type, so call sites
// allocate nothing — trace.Event{...} literals live on the stack —
// and a disabled run is bit-identical in behaviour and allocation
// profile to one with no tracer compiled in. When a tracer is live,
// the last RingSize events are always retained for post-mortems
// (deadlock dumps) even if no sink is attached.
package trace

import (
	"fmt"
	"strconv"
)

// Kind is the event type. The A/B payload bytes are kind-specific:
// bus events carry the transaction type in A; state events carry
// from/to protocol states in A/B; miss events carry the source (0 =
// memory, 1 = remote cache) in A; SLE aborts carry the outcome in A.
type Kind uint8

// Event kinds.
const (
	KBusGrant    Kind = iota // transaction won arbitration (A = txn type)
	KBusAbort                // requester cancelled at grant (A = txn type)
	KBusDeliver              // completion delivered (A = txn type, Arg = cycles since request)
	KState                   // protocol state transition (A = from, B = to)
	KTSDetect                // temporal silence detected on a dirty line
	KValIssue                // validate broadcast requested
	KValSuppress             // validate suppressed by the useful-validate predictor
	KValCancel               // queued validate cancelled at grant (line lost)
	KValUseful               // useful snoop response asserted at upgrade completion
	KValUseless              // useful snoop response silent at upgrade completion
	KLVPPredict              // speculative value delivered from a tag-match invalid line (Arg = value)
	KLVPVerifyOK             // arrived data confirmed all speculative words
	KLVPSquash               // value misprediction; core squashes
	KSLEElide                // store-conditional elided; region speculation begins
	KSLECommit               // elided region retired atomically
	KSLEAbort                // elision aborted (A = predictor.ElisionOutcome)
	KMiss                    // data fetch classified at completion (A: 0 = memory, 1 = remote dirty cache)
	KMSHROrphan              // data fill arrived with no live MSHR for the line (A = txn type)
	kindCount
)

var kindNames = [kindCount]string{
	KBusGrant:    "bus-grant",
	KBusAbort:    "bus-abort",
	KBusDeliver:  "bus-deliver",
	KState:       "state",
	KTSDetect:    "ts-detect",
	KValIssue:    "validate-issue",
	KValSuppress: "validate-suppress",
	KValCancel:   "validate-cancel",
	KValUseful:   "validate-useful",
	KValUseless:  "validate-useless",
	KLVPPredict:  "lvp-predict",
	KLVPVerifyOK: "lvp-verify-ok",
	KLVPSquash:   "lvp-squash",
	KSLEElide:    "sle-elide",
	KSLECommit:   "sle-commit",
	KSLEAbort:    "sle-abort",
	KMiss:        "miss",
	KMSHROrphan:  "mshr-orphan-fill",
}

// KindCount returns the number of defined kinds (exhaustive iteration
// in tests).
func KindCount() Kind { return kindCount }

// String returns the hyphenated event name used in exports.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// StateNames labels the protocol-state bytes carried in KState events,
// in the order of core's State constants (I, S, E, O, M, T, VS). It is
// the one table of them: core.StateName reads it.
var StateNames = [...]string{"I", "S", "E", "O", "M", "T", "VS"}

// StateName renders one protocol-state byte.
func StateName(s uint8) string {
	if int(s) < len(StateNames) {
		return StateNames[s]
	}
	return fmt.Sprintf("state(%d)", s)
}

// TxnNames labels the transaction-type bytes carried in bus events, in
// bus.TxnType order. It is the one table of them: bus.TxnType.String
// reads it.
var TxnNames = [...]string{"read", "readx", "upgrade", "writeback", "validate"}

// TxnName renders one transaction-type byte.
func TxnName(t uint8) string {
	if int(t) < len(TxnNames) {
		return TxnNames[t]
	}
	return fmt.Sprintf("txn(%d)", t)
}

// Event is one traced occurrence. It is a fixed-size value type with
// no pointers: emitting one allocates nothing and copying is a handful
// of words.
type Event struct {
	Cycle uint64 // stamped by the tracer at emit time
	Addr  uint64 // line or word address the event concerns (0 if none)
	Arg   uint64 // kind-specific payload (latency, predicted value, ...)
	Node  int32  // originating node/CPU id (-1 for system-wide)
	Kind  Kind
	A, B  uint8 // kind-specific bytes (states, txn type, outcome)
}

// AppendJSON appends e's one encoding, a JSON object without a
// trailing newline, to b:
//
//	{"cycle":412,"node":1,"kind":"state","detail":"S>M","addr":"0x1000","arg":0}
//
// The JSONL sink writes it as a line and a post-mortem prints the
// ring's tail in it.
func (e Event) AppendJSON(b []byte) []byte {
	b = append(b, `{"cycle":`...)
	b = strconv.AppendUint(b, e.Cycle, 10)
	b = append(b, `,"node":`...)
	b = strconv.AppendInt(b, int64(e.Node), 10)
	b = append(b, `,"kind":`...)
	b = strconv.AppendQuote(b, e.Kind.String())
	b = append(b, `,"detail":"`...)
	b = e.appendDetail(b)
	b = append(b, `","addr":"0x`...)
	b = strconv.AppendUint(b, e.Addr, 16)
	b = append(b, `","arg":`...)
	b = strconv.AppendUint(b, e.Arg, 10)
	return append(b, '}')
}

// appendDetail appends the kind-specific payload bytes for humans
// ("S>M", "readx", "comm"), nothing when the kind carries none. No name
// needs escaping in a JSON string.
func (e Event) appendDetail(b []byte) []byte {
	switch e.Kind {
	case KBusGrant, KBusAbort, KBusDeliver, KMSHROrphan:
		return append(b, TxnName(e.A)...)
	case KState:
		return append(append(append(b, StateName(e.A)...), '>'), StateName(e.B)...)
	case KMiss:
		if e.A == 1 {
			return append(b, "comm"...)
		}
		return append(b, "mem"...)
	case KSLEAbort:
		return append(strconv.AppendUint(append(b, "outcome("...), uint64(e.A), 10), ')')
	}
	return b
}

// Tracer collects events. A nil *Tracer is the disabled tracer: every
// method is a no-op, so components thread one unconditionally.
type Tracer struct {
	now   uint64
	total uint64
	ring  [RingSize]Event
	head  int // next write position
	sink  Sink
	err   error
}

// RingSize is how many of the latest events a tracer retains: the
// event tail a post-mortem prints.
const RingSize = 64

// New builds a tracer retaining the last RingSize events. sink may be
// nil for ring-only (post-mortem) tracing; a non-nil sink additionally
// receives every event as it is emitted.
func New(sink Sink) *Tracer {
	return &Tracer{sink: sink}
}

// Advance sets the cycle stamped on subsequently emitted events. The
// simulator calls it once per machine cycle; emit sites never pass
// time themselves, which keeps them in sync with the global clock.
func (t *Tracer) Advance(cycle uint64) {
	if t == nil {
		return
	}
	t.now = cycle
}

// Emit records one event, stamping the current cycle. On a nil tracer
// it is a no-op (and the value-typed argument means the call site
// still performs zero allocations).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	e.Cycle = t.now
	t.ring[t.head] = e
	t.head++
	if t.head == RingSize {
		t.head = 0
	}
	t.total++
	if t.sink != nil && t.err == nil {
		t.err = t.sink.Write(e)
	}
}

// Total returns the number of events emitted over the tracer's life
// (including those the ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Last returns the retained events, oldest first.
func (t *Tracer) Last() []Event {
	if t == nil {
		return nil
	}
	n := int(min(t.total, RingSize))
	return append(append([]Event(nil), t.ring[t.head:n]...), t.ring[:t.head]...)
}

// Close flushes and closes the sink (if any) and returns the first
// error seen over the tracer's life. After a write error the sink
// receives no further events; the ring keeps recording.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	if t.sink != nil {
		if err := t.sink.Close(); err != nil && t.err == nil {
			t.err = err
		}
		t.sink = nil
	}
	return t.err
}
