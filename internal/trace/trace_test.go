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
	tr := trace.New(4, nil)
	for i := 0; i < 10; i++ {
		tr.Advance(uint64(100 + i))
		tr.Emit(trace.Event{Node: int32(i), Kind: trace.KState})
	}
	if got := tr.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	last := tr.Last(4)
	if len(last) != 4 {
		t.Fatalf("Last(4) returned %d events", len(last))
	}
	for i, e := range last {
		wantCycle := uint64(100 + 6 + i) // events 6..9 survive the wrap
		if e.Cycle != wantCycle || e.Node != int32(6+i) {
			t.Errorf("Last[%d] = cycle %d node %d, want cycle %d node %d",
				i, e.Cycle, e.Node, wantCycle, 6+i)
		}
	}
	// Asking for more than the ring holds returns what is retained.
	if got := len(tr.Last(100)); got != 4 {
		t.Errorf("Last(100) returned %d events, want 4", got)
	}
}

func TestEmitStampsCycleInOrder(t *testing.T) {
	sink := &recordSink{}
	tr := trace.New(0, sink)
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
	if tr.Total() != 0 || tr.Err() != nil || tr.Last(10) != nil || tr.Close() != nil {
		t.Error("nil tracer accessors must be zero-valued no-ops")
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(0, trace.NewJSONLSink(&buf))
	tr.Advance(412)
	tr.Emit(trace.Event{Node: 1, Kind: trace.KState, Addr: 0x1000, A: 1, B: 4}) // S>M
	tr.Advance(500)
	tr.Emit(trace.Event{Node: 2, Kind: trace.KBusDeliver, Addr: 0x2040, A: 1, Arg: 88})
	tr.Emit(trace.Event{Node: -1, Kind: trace.KMiss, A: 1})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d JSONL lines, want 3:\n%s", len(lines), buf.String())
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
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestChromeExportIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(0, trace.NewChromeSink(&buf))
	kinds := []trace.Kind{
		trace.KBusGrant, trace.KState, trace.KValIssue,
		trace.KLVPPredict, trace.KSLEElide, trace.KMiss,
	}
	for i, k := range kinds {
		tr.Advance(uint64(10 * (i + 1)))
		tr.Emit(trace.Event{Node: int32(i % 2), Kind: k, Addr: 0x40})
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome export is not valid JSON: %v\n%s", err, buf.String())
	}
	var instants, meta int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "i":
			instants++
			for _, field := range []string{"name", "cat", "ts", "pid", "tid"} {
				if _, ok := e[field]; !ok {
					t.Errorf("instant event missing %q: %v", field, e)
				}
			}
		case "M":
			meta++
		default:
			t.Errorf("unexpected phase %v in %v", e["ph"], e)
		}
	}
	if instants != len(kinds) {
		t.Errorf("got %d instant events, want %d", instants, len(kinds))
	}
	// process_name per node plus thread_name per (node, category).
	if meta == 0 {
		t.Error("no naming metadata emitted")
	}
}

func TestChromeEmptyTraceIsValidJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := trace.New(0, trace.NewChromeSink(&buf))
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty chrome export is not valid JSON: %v\n%s", err, buf.String())
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
		if c := k.Category(); c == "other" {
			t.Errorf("Kind %s has no category lane", k)
		}
	}
}
