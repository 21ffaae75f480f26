package core

import (
	"testing"

	"tssim/internal/bus"
	"tssim/internal/mem"
)

// tickUntil runs the harness until cond holds, returning the cycle
// during which it first did.
func (h *harness) tickUntil(cond func() bool) uint64 {
	for i := 0; i < 100000; i++ {
		at := h.now
		h.tick(1)
		if cond() {
			return at
		}
	}
	h.t.Fatal("tickUntil: condition never held")
	return 0
}

// The upgrade-steal refetch path: a snoop may take the line away
// between an Upgrade's grant and its completion. If loads missed onto
// the MSHR inside that window, the controller must refetch exactly
// once, keep the MSHR until the refetch lands, and serve the waiter
// from it. The window is two cycles on the atomic bus but widens on
// the split-transaction bus and the directory (ack-latency term), so
// the test pins the scenario on every backend.
func TestUpgradeStealRefetchServesWaiter(t *testing.T) {
	kinds := append([]string{""}, bus.Kinds()...)
	for _, kind := range kinds {
		label := kind
		if label == "" {
			label = "atomic"
		}
		t.Run(label, func(t *testing.T) {
			h := newHarnessIC(t, 2, kind, nil)
			const addr = 0x1000
			la := mem.LineAddr(addr)
			h.mem.WriteWord(addr, 0)
			h.loadValue(0, addr)
			h.loadValue(1, addr) // both S

			// Same-cycle racing stores: both queue Upgrades, the loser
			// converts to ReadX at its grant and steals the winner's
			// freshly-written M line before the winner's Upgrade
			// completes.
			h.nodes[0].StoreCommit(h.seq(), 0, addr, 10)
			h.nodes[1].StoreCommit(h.seq(), 0, addr, 20)

			// Arbitration order decides the winner; detect it rather
			// than assuming.
			winner := -1
			h.tickUntil(func() bool {
				for i, n := range h.nodes {
					if n.LineState(la) == StateM {
						winner = i
						return true
					}
				}
				return false
			})

			// Catch the steal window: the winner's line is gone but its
			// Upgrade transaction is still in flight.
			h.tickUntil(func() bool {
				return !Readable(h.nodes[winner].LineState(la)) &&
					h.nodes[winner].mshrs.Lookup(la) != nil
			})
			if got := h.ctrs.Get("coherence/upgrade_stolen_refetch"); got != 0 {
				t.Fatalf("refetch fired before a waiter existed (count %d)", got)
			}

			// A load inside the window must miss onto the in-flight
			// Upgrade's MSHR, forcing the refetch at completion.
			s := h.seq()
			if r := h.nodes[winner].Load(s, addr, false); r.Status != LoadMiss && r.Status != LoadSpec {
				t.Fatalf("in-window load status = %v, want a miss", r.Status)
			}

			h.tickUntil(func() bool {
				return h.ctrs.Get("coherence/upgrade_stolen_refetch") == 1
			})
			if h.nodes[winner].mshrs.Lookup(la) == nil {
				t.Fatal("MSHR freed despite an un-served waiter")
			}

			// The waiting load completes from the refetched line.
			h.tickUntil(func() bool {
				_, ok := h.clients[winner].loadsDone[s]
				return ok
			})
			if v := h.clients[winner].loadsDone[s]; v != 10 && v != 20 {
				t.Fatalf("waiter load observed %d, want one of the racing stores", v)
			}
			h.drain()
			if got := h.ctrs.Get("coherence/upgrade_stolen_refetch"); got != 1 {
				t.Fatalf("refetch counted %d times, want once", got)
			}
			if h.bus.Err() != nil {
				t.Fatalf("interconnect latched: %v", h.bus.Err())
			}
			h.checkCoherenceInvariants()
			v0, v1 := h.loadValue(0, addr), h.loadValue(1, addr)
			if v0 != v1 || (v0 != 10 && v0 != 20) {
				t.Fatalf("final values %d/%d", v0, v1)
			}
		})
	}
}
