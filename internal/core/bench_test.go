package core

import "testing"

// BenchmarkControllerLoadRefused is the cost of one counted LoadRetry
// on a real controller — store-buffer scan, L1 and L2 lookups, MSHR
// lookup, Alloc on the full file — which is what the core's retry memo
// (cpu.readyRef.retryVer) avoids paying per parked load per cycle.
func BenchmarkControllerLoadRefused(b *testing.B) {
	h := newHarness(b, 1, func(_ int, c *Config) { c.MSHRs = 8 })
	n := h.nodes[0]
	h.fillMSHRs(0)
	refused := LoadResult{Status: LoadRetry, Counted: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := n.Load(1000, 0x2000, false); r != refused {
			b.Fatalf("load with the MSHR file full: %+v", r)
		}
	}
}
