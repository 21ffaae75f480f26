package sim

import (
	"fmt"
	"strings"

	"tssim/internal/trace"
)

// postMortemEvents bounds how many trailing trace events a post-mortem
// includes.
const postMortemEvents = 64

// postMortem renders a full machine dump: per-core pipeline state, live
// MSHRs and store buffers, the interconnect's queues and in-flight
// transactions, and — when a tracer is attached — the last events
// before the failure. It becomes RunError.PostMortem.
func (s *System) postMortem(reason string) string {
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
		evs := tr.Last(postMortemEvents)
		fmt.Fprintf(&w, "last %d trace events (of %d emitted):\n%s",
			len(evs), tr.Total(), trace.FormatEvents(evs))
	} else {
		w.WriteString("no event trace recorded (set Config.Trace to capture one)\n")
	}
	w.WriteString("=== end post-mortem ===\n")
	return w.String()
}
