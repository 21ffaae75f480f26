package trace_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/core"
	"tssim/internal/trace"
)

// recordSink keeps every event it sees.
type recordSink struct{ evs []trace.Event }

func (s *recordSink) Write(e trace.Event) error { s.evs = append(s.evs, e); return nil }
func (s *recordSink) Close() error              { return nil }

func TestRingOrderAndWraparound(t *testing.T) {
	tr := trace.New(nil)
	const n = trace.RingSize + 6
	for i := 0; i < n; i++ {
		tr.Advance(uint64(100 + i))
		tr.Emit(trace.Event{Node: int32(i), Kind: trace.KState})
		if got := len(tr.Last()); got != min(i+1, trace.RingSize) {
			t.Fatalf("after %d events Last() returned %d", i+1, got)
		}
	}
	if got := tr.Total(); got != n {
		t.Fatalf("Total = %d, want %d", got, n)
	}
	for i, e := range tr.Last() {
		want := 6 + i // events 0..5 are overwritten by the wrap
		if e.Cycle != uint64(100+want) || e.Node != int32(want) {
			t.Errorf("Last()[%d] = cycle %d node %d, want cycle %d node %d",
				i, e.Cycle, e.Node, 100+want, want)
		}
	}
}

func TestEmitStampsCycleInOrder(t *testing.T) {
	sink := &recordSink{}
	tr := trace.New(sink)
	cycles := []uint64{5, 5, 7, 12, 12, 40}
	for _, c := range cycles {
		tr.Advance(c)
		tr.Emit(trace.Event{Kind: trace.KBusGrant, Cycle: 999999}) // caller's stamp is overwritten
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var prev uint64
	for i, e := range sink.evs {
		if e.Cycle != cycles[i] {
			t.Errorf("event %d stamped cycle %d, want %d", i, e.Cycle, cycles[i])
		}
		if e.Cycle < prev {
			t.Errorf("event %d out of order: cycle %d after %d", i, e.Cycle, prev)
		}
		prev = e.Cycle
	}
}

func TestDisabledTracerIsFreeAndSafe(t *testing.T) {
	var tr *trace.Tracer // the disabled tracer every component holds
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Advance(42)
		tr.Emit(trace.Event{Kind: trace.KState, Addr: 0x1000, A: 1, B: 4})
		tr.Emit(trace.Event{Kind: trace.KBusGrant, Node: 3, Arg: 17})
	})
	if allocs != 0 {
		t.Errorf("disabled tracer allocated %.1f per emit batch, want 0", allocs)
	}
	if tr.Total() != 0 || tr.Last() != nil || tr.Close() != nil {
		t.Error("nil tracer accessors must be zero-valued no-ops")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(trace.NewJSONLSink(&buf))
	tr.Advance(412)
	tr.Emit(trace.Event{Node: 1, Kind: trace.KState, Addr: 0x1000, A: 1, B: 4}) // S>M
	tr.Advance(500)
	tr.Emit(trace.Event{Node: 2, Kind: trace.KBusDeliver, Addr: 0x2040, A: 1, Arg: 88})
	tr.Emit(trace.Event{Node: -1, Kind: trace.KMiss, A: 1})
	tr.Emit(trace.Event{Node: 3, Kind: trace.KSLEAbort, Addr: 0x80, A: 2})
	tr.Emit(trace.Event{Node: 0, Kind: trace.KValIssue, Addr: 0x40})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d JSONL lines, want 5:\n%s", len(lines), buf.String())
	}
	// The encoding's bytes are fixed: a trace file and a post-mortem
	// tail print them, and tools grep them.
	for i, want := range map[int]string{
		0: `{"cycle":412,"node":1,"kind":"state","detail":"S>M","addr":"0x1000","arg":0}`,
		3: `{"cycle":500,"node":3,"kind":"sle-abort","detail":"outcome(2)","addr":"0x80","arg":0}`,
	} {
		if lines[i] != want {
			t.Errorf("line %d = %s, want %s", i, lines[i], want)
		}
	}
	type rec struct {
		Cycle  uint64 `json:"cycle"`
		Node   int32  `json:"node"`
		Kind   string `json:"kind"`
		Detail string `json:"detail"`
		Addr   string `json:"addr"`
		Arg    uint64 `json:"arg"`
	}
	var got []rec
	for i, line := range lines {
		var r rec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i, err, line)
		}
		got = append(got, r)
	}
	want := []rec{
		{412, 1, "state", "S>M", "0x1000", 0},
		{500, 2, "bus-deliver", "readx", "0x2040", 88},
		{500, -1, "miss", "comm", "0x0", 0},
		{500, 3, "sle-abort", "outcome(2)", "0x80", 0},
		{500, 0, "validate-issue", "", "0x40", 0},
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// core's states are named by trace's table alone: the table covers
// every state core defines, names each one, and names nothing more.
func TestStateNamesMirrorCore(t *testing.T) {
	if len(trace.StateNames) != int(core.StateVS)+1 {
		t.Fatalf("trace.StateNames has %d entries; core defines %d states",
			len(trace.StateNames), core.StateVS+1)
	}
	for s := core.StateI; s <= core.StateVS; s++ {
		if n := core.StateName(s); n == "" || strings.HasPrefix(n, "state(") {
			t.Errorf("state %d has no name (%q)", s, n)
		}
	}
}

// bus's transaction types are named by trace's table alone: the table
// covers every type bus defines, names each one, and names nothing more.
func TestTxnNamesMirrorBus(t *testing.T) {
	if len(trace.TxnNames) != int(bus.TxnValidate)+1 {
		t.Fatalf("trace.TxnNames has %d entries; bus defines %d transaction types",
			len(trace.TxnNames), bus.TxnValidate+1)
	}
	for ty := bus.TxnRead; ty <= bus.TxnValidate; ty++ {
		if n := ty.String(); n == "" || strings.HasPrefix(n, "txn(") {
			t.Errorf("transaction type %d has no name (%q)", ty, n)
		}
	}
}

func TestKindNamesAndCategories(t *testing.T) {
	for k := trace.Kind(0); k < trace.KindCount(); k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("Kind(%d) has no name", k)
		}
	}
}
