package core

import "testing"

// An MSHR waits only for loads still in flight. A load that misses, is
// killed by a squash (a snoop replay, say) and is re-issued onto the
// outstanding miss k times leaves one waiter, and the fill answers it
// once (without the prune the list would hold k+1 waiters and the fill
// would name k dead seqs). What merged outlives the squash: a load-locked
// killed for good still has its fill set the reservation, as it always
// has. Neither prune moves the state version.
func TestSquashedLoadsLeaveTheMSHR(t *testing.T) {
	const addr, k = 0x1008, 5
	rows := []struct {
		name    string
		isLL    bool
		reissue bool
	}{
		{"a load re-issued after every squash", false, true},
		{"a load-locked re-issued after every squash", true, true},
		{"a load-locked squashed for good", true, false},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			h := newHarness(t, 1, nil)
			n := h.nodes[0]
			h.mem.WriteWord(addr, 42)
			seq := h.seq()
			if res := n.Load(seq, addr, r.isLL); res.Status != LoadMiss {
				t.Fatalf("first load: %+v, want a miss", res)
			}
			m := n.mshrs.Lookup(addr)
			for i := 0; i < k; i++ {
				ver := n.StateVersion()
				n.Squashed(seq - 1) // the squash kills the load and everything younger
				if n.StateVersion() != ver {
					t.Fatal("Squashed moved the state version")
				}
				if !r.reissue {
					break
				}
				seq = h.seq()
				if res := n.Load(seq, addr, r.isLL); res.Status != LoadMiss {
					t.Fatalf("re-issue %d: %+v, want a miss onto the outstanding MSHR", i+1, res)
				}
			}
			live := 0
			if r.reissue {
				live = 1
			}
			if len(m.Waiters) != live || !m.LoadMerged || (m.LLSeq != 0) != r.isLL {
				t.Fatalf("before the fill: %d waiters, merged load=%v ll=%d; want %d, true, %v",
					len(m.Waiters), m.LoadMerged, m.LLSeq, live, r.isLL)
			}
			h.drain()
			done := h.clients[0].loadsDone
			if len(done) != live || (r.reissue && done[seq] != 42) {
				t.Fatalf("the fill answered %v, want only the last seq %d with 42 (%d of them)", done, seq, live)
			}
			if n.HasReservation(addr, anySC) != r.isLL {
				t.Fatalf("reservation after the fill = %v, want %v", n.HasReservation(addr, anySC), r.isLL)
			}
			if n.MSHRsInUse() != 0 {
				t.Fatalf("%d MSHRs still in use after the fill", n.MSHRsInUse())
			}
		})
	}
}
