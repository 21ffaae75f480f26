package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/mem"
)

// The seam is a property of the source: in this package's non-test
// files a line's State is assigned only in setState, stateVer moves only
// in the four named mutators, and the MSHR file is allocated from and
// freed into only through their wrappers. A transition written anywhere
// else is one the trace and the core's memo key would not see.
func TestOnlyTheSeamWrites(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string][]string{
		".State =":    {"setState"},
		"stateVer":    {"setState", "allocMSHR", "freeMSHR", "popStore"},
		"mshrs.Alloc": {"allocMSHR"},
		"mshrs.Free":  {"freeMSHR"},
	}
	seen := map[string]map[string]bool{}
	note := func(what, fn string, pos token.Pos) {
		if seen[what] == nil {
			seen[what] = map[string]bool{}
		}
		seen[what][fn] = true
		for _, ok := range allowed[what] {
			if fn == ok {
				return
			}
		}
		t.Errorf("%s: %s written in %s, allowed only in %v", fset.Position(pos), what, fn, allowed[what])
	}
	selector := func(e ast.Expr, name string) bool {
		s, ok := e.(*ast.SelectorExpr)
		return ok && s.Sel.Name == name
	}
	for _, f := range pkgs["core"].Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if selector(lhs, "State") {
							note(".State =", fd.Name.Name, n.Pos())
						}
						if selector(lhs, "stateVer") {
							note("stateVer", fd.Name.Name, n.Pos())
						}
					}
				case *ast.IncDecStmt:
					if selector(n.X, "stateVer") {
						note("stateVer", fd.Name.Name, n.Pos())
					}
				case *ast.CallExpr:
					if s, ok := n.Fun.(*ast.SelectorExpr); ok && selector(s.X, "mshrs") &&
						(s.Sel.Name == "Alloc" || s.Sel.Name == "Free") {
						note("mshrs."+s.Sel.Name, fd.Name.Name, n.Pos())
					}
				}
				return true
			})
		}
	}
	// The walk found the seam itself: a rename would otherwise pass it
	// by looking at nothing.
	for what, fns := range allowed {
		for _, fn := range fns {
			if !seen[what][fn] {
				t.Errorf("%s is not written in %s: the test no longer sees the seam", what, fn)
			}
		}
	}
}

// makeSilent takes the line through a temporally silent pair on node 0
// — E, a store of 1, a store of the original 0 — and returns the frame,
// flagged silent in M.
func makeSilent(h *harness, la uint64) *cache.Line {
	h.t.Helper()
	n := h.nodes[0]
	n.installL2(la, lineOf(0), StateE)
	for _, v := range []uint64{1, 0} {
		n.StoreCommit(h.seq(), 0, la, v)
		n.Tick(h.now)
		h.now++
	}
	l := n.l2.Lookup(la)
	if l.State != StateM || l.Flags != FlagSilent || h.counter("mesti/ts_detect") != 1 {
		h.t.Fatalf("silent pair left the line in %s, flags %#b, %d detections", StateName(l.State), l.Flags, h.counter("mesti/ts_detect"))
	}
	return l
}

// revalidate plants a T copy on node 0 and snoops a matching validate at
// cycle at, and returns the frame, flagged revalidated and stamped.
func revalidate(h *harness, la, at uint64) *cache.Line {
	h.t.Helper()
	n := h.nodes[0]
	n.installL2(la, lineOf(7), StateT)
	n.now = at
	n.SnoopTxn(&bus.Txn{Type: bus.TxnValidate, Addr: la, Src: 1, WData: lineOf(7)})
	l := n.l2.Lookup(la)
	if l.State != StateVS || l.Flags != FlagRevalidated || l.Stamp != uint32(at) {
		h.t.Fatalf("validate left the line in %s, flags %#b, stamp %d", StateName(l.State), l.Flags, l.Stamp)
	}
	return l
}

// evictAndRefill displaces the line from node 0's L2 by filling its set
// (4 ways, 16 sets) and brings it back in S.
func evictAndRefill(h *harness, la uint64) *cache.Line {
	h.t.Helper()
	n := h.nodes[0]
	for way := uint64(1); way <= 4; way++ {
		n.installL2(la+way*16*mem.LineSize, lineOf(0), StateS)
	}
	if n.l2.Lookup(la) != nil {
		h.t.Fatal("the line survived four fills of its set")
	}
	n.installL2(la, lineOf(0), StateS)
	return n.l2.Lookup(la)
}

// The two per-line facts live and die with the frame: what used to be
// four hand-kept scrubs of two side maps is the frame being reallocated,
// enterT clearing the flags with the permission, and the first use
// clearing its own. Each row ends with the flags, and the validate-to-
// reuse distances observed, it must leave.
func TestFrameFlagsLifetime(t *testing.T) {
	const la = uint64(0x2000)
	rows := []struct {
		name      string
		run       func(h *harness) *cache.Line
		flags     uint8
		distances []uint64 // lat/validate_reuse observations, in order
	}{
		{name: "silent, then evicted and reallocated",
			run: func(h *harness) *cache.Line { makeSilent(h, la); return evictAndRefill(h, la) }},
		{name: "silent, then invalidated",
			run: func(h *harness) *cache.Line {
				l := makeSilent(h, la)
				h.nodes[0].SnoopTxn(&bus.Txn{Type: bus.TxnReadX, Addr: la, Src: 1})
				return l
			}},
		{name: "silent survives a remote read (M to O)", flags: FlagSilent,
			run: func(h *harness) *cache.Line {
				l := makeSilent(h, la)
				h.nodes[0].SnoopTxn(&bus.Txn{Type: bus.TxnRead, Addr: la, Src: 1})
				return l
			}},
		{name: "revalidated, then evicted and reallocated",
			run: func(h *harness) *cache.Line { revalidate(h, la, 100); return evictAndRefill(h, la) }},
		{name: "revalidated, then invalidated",
			run: func(h *harness) *cache.Line {
				l := revalidate(h, la, 100)
				h.nodes[0].SnoopTxn(&bus.Txn{Type: bus.TxnUpgrade, Addr: la, Src: 1})
				return l
			}},
		{
			// A fill is not a use: the read that missed on the T copy
			// lands on the revalidated frame and the flag rides through.
			name: "revalidated, then refilled on the tag match", flags: FlagRevalidated,
			run: func(h *harness) *cache.Line {
				n := h.nodes[0]
				n.installL2(la, lineOf(7), StateT)
				if r := n.Load(h.seq(), la, false); r.Status != LoadMiss {
					h.t.Fatalf("load of a T copy: %+v, want a miss", r)
				}
				n.now = 100
				n.SnoopTxn(&bus.Txn{Type: bus.TxnValidate, Addr: la, Src: 1, WData: lineOf(7)})
				n.CompleteTxn(&bus.Txn{Type: bus.TxnRead, Addr: la, Data: lineOf(7), Shared: true})
				return n.l2.Lookup(la)
			}},
		{name: "first reuse by a load, and only the first", distances: []uint64{50},
			run: func(h *harness) *cache.Line {
				l := revalidate(h, la, 100)
				h.nodes[0].now = 150
				for i := 0; i < 2; i++ {
					if r := h.nodes[0].Load(h.seq(), la, false); r.Status != LoadHit || r.Value != 7 {
						h.t.Fatalf("load %d of the revalidated line: %+v", i, r)
					}
				}
				return l
			}},
		{name: "first reuse by a store", distances: []uint64{25},
			run: func(h *harness) *cache.Line {
				l := revalidate(h, la, 100)
				h.nodes[0].StoreCommit(h.seq(), 0, la, 9)
				h.nodes[0].Tick(125) // VS to S, the distance, the upgrade request
				if l.State != StateS || h.counter("emesti/vs_use") != 1 {
					h.t.Fatalf("the store's request left the line in %s", StateName(l.State))
				}
				return l
			}},
		{name: "a stamp that wraps 2^32", distances: []uint64{30},
			run: func(h *harness) *cache.Line {
				l := revalidate(h, la, 1<<32-10)
				h.nodes[0].now = 1<<32 + 20
				h.nodes[0].Load(h.seq(), la, false)
				return l
			}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			h := newHarness(t, 2, func(_ int, c *nodeCfg) { c.MESTI, c.EMESTI = true, true })
			l := r.run(h)
			if l.Flags != r.flags {
				t.Errorf("frame flags %#b, want %#b (state %s)", l.Flags, r.flags, StateName(l.State))
			}
			hist := h.ctrs.Hist("lat/validate_reuse")
			var sum uint64
			for _, d := range r.distances {
				sum += d
			}
			if hist.N() != uint64(len(r.distances)) || hist.Sum() != sum {
				t.Errorf("observed %d validate-to-reuse distances summing to %d, want %v", hist.N(), hist.Sum(), r.distances)
			}
		})
	}
}

// The writeback buffer is one record per line: evicted twice before the
// first writeback is granted, the line is held until the second
// completes, supplying the later data.
func TestWBInfoCountsDoubleEviction(t *testing.T) {
	const la = uint64(0x2000)
	h := newHarness(t, 2, nil)
	n := h.nodes[0]
	steps := []struct {
		name     string
		do       func()
		pending  int
		supplies uint64
	}{
		{"never evicted", func() {}, 0, 0},
		{"evicted dirty", func() { n.evictL2(&cache.Line{Addr: la, State: StateM, Data: lineOf(1)}) }, 1, 1},
		{"evicted dirty again", func() { n.evictL2(&cache.Line{Addr: la, State: StateM, Data: lineOf(2)}) }, 2, 2},
		{"first writeback completes", func() { n.CompleteTxn(&bus.Txn{Type: bus.TxnWriteback, Addr: la}) }, 1, 2},
		{"second writeback completes", func() { n.CompleteTxn(&bus.Txn{Type: bus.TxnWriteback, Addr: la}) }, 0, 0},
		{"a clean eviction buffers nothing", func() { n.evictL2(&cache.Line{Addr: la, State: StateS}) }, 0, 0},
	}
	for _, s := range steps {
		s.do()
		if got := n.WBInfo(la); got != s.pending {
			t.Fatalf("%s: %d writebacks pending, want %d", s.name, got, s.pending)
		}
		reply := n.SnoopTxn(&bus.Txn{Type: bus.TxnRead, Addr: la, Src: 1})
		if held := reply.Data != nil; held != (s.pending > 0) {
			t.Fatalf("%s: snoop supplied from the buffer = %v with %d pending", s.name, held, s.pending)
		}
		if reply.Data != nil && reply.Data.Word(0) != s.supplies {
			t.Fatalf("%s: the buffer supplies %d, want %d", s.name, reply.Data.Word(0), s.supplies)
		}
		var listed int
		n.ForEachWB(func(uint64) { listed++ })
		if (listed == 1) != (s.pending > 0) {
			t.Fatalf("%s: ForEachWB lists %d lines with %d pending", s.name, listed, s.pending)
		}
	}
}
