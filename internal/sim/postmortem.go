package sim

import (
	"fmt"
	"strings"
)

// postMortem renders a full machine dump: per-core pipeline state, live
// MSHRs and store buffers, the interconnect's queues and in-flight
// transactions, and — when a tracer is attached — the tracer's ring,
// the last events before the failure, one JSON line each as the trace
// file has them. It becomes RunError.PostMortem.
func (s *System) postMortem(reason string) string {
	s.wakeAll()
	var w strings.Builder
	fmt.Fprintf(&w, "=== tssim post-mortem: %s ===\n", reason)
	fmt.Fprintf(&w, "cycle=%d cpus=%d tech=%s\n", s.now, s.cfg.CPUs, s.cfg.Tech)
	w.WriteString(s.Bus.DebugString())
	for i, c := range s.Cores {
		w.WriteString(c.DebugState())
		w.WriteString(s.Nodes[i].DebugMSHRs())
		w.WriteString(s.Nodes[i].DebugStoreBuf())
	}
	if tr := s.cfg.Trace; tr != nil {
		evs := tr.Last()
		fmt.Fprintf(&w, "last %d trace events (of %d emitted):\n", len(evs), tr.Total())
		var lines []byte
		for _, e := range evs {
			lines = append(e.AppendJSON(lines), '\n')
		}
		w.Write(lines)
	} else {
		w.WriteString("no event trace recorded (set Config.Trace to capture one)\n")
	}
	w.WriteString("=== end post-mortem ===\n")
	return w.String()
}
