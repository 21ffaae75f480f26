package cache

import (
	"slices"
	"testing"

	"tssim/internal/mem"
)

func TestMSHRAllocLookupFree(t *testing.T) {
	f := NewMSHRFile(2)
	if f.Lookup(0x1000) != nil {
		t.Fatal("lookup in empty file hit")
	}
	a := f.Alloc(0x1010, false)
	if a == nil || a.Addr != 0x1000 || a.Write {
		t.Fatalf("alloc = %+v", a)
	}
	if f.Lookup(0x1038) != a {
		t.Fatal("lookup by other offset in line failed")
	}
	b := f.Alloc(0x2000, true)
	if b == nil || !b.Write {
		t.Fatal("second alloc failed")
	}
	if f.Alloc(0x3000, false) != nil {
		t.Fatal("file overflow not detected")
	}
	if f.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", f.InUse())
	}
	f.Free(a)
	if f.Lookup(0x1000) != nil {
		t.Fatal("freed entry still found")
	}
	if f.Alloc(0x3000, false) == nil {
		t.Fatal("alloc after free failed")
	}
}

func TestMSHRDuplicatePanics(t *testing.T) {
	f := NewMSHRFile(4)
	f.Alloc(0x1000, false)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc must panic")
		}
	}()
	f.Alloc(0x1008, true)
}

func TestMSHRRecordSpecTracksOldest(t *testing.T) {
	var m MSHR
	m.RecordSpec(3, 100, 7)
	m.RecordSpec(1, 50, 8)
	m.RecordSpec(2, 200, 9)
	if m.OldestSeq != 50 {
		t.Fatalf("OldestSeq = %d, want 50", m.OldestSeq)
	}
	if m.SpecWords != 0b0000_1110 {
		t.Fatalf("SpecWords = %#b", m.SpecWords)
	}
}

func TestMSHRVerifyOnlyAccessedWords(t *testing.T) {
	var m MSHR
	m.RecordSpec(0, 1, 42)
	var arrived mem.Line
	arrived.SetWord(0, 42)
	arrived.SetWord(5, 999) // remote wrote a different word (false sharing)
	if !m.Verify(&arrived) {
		t.Fatal("false sharing must not be a value misprediction")
	}
	arrived.SetWord(0, 43)
	if m.Verify(&arrived) {
		t.Fatal("wrong value for accessed word must fail verification")
	}
}

func TestMSHRVerifyNoSpeculation(t *testing.T) {
	var m MSHR
	var arrived mem.Line
	arrived.SetWord(0, 123)
	if !m.Verify(&arrived) {
		t.Fatal("non-speculative MSHR must always verify")
	}
}

func TestMSHRFileForEach(t *testing.T) {
	f := NewMSHRFile(8)
	f.Alloc(0x1000, false)
	f.Alloc(0x2000, true)
	seen := 0
	f.ForEach(func(m *MSHR) { seen++ })
	if seen != 2 {
		t.Fatalf("ForEach visited %d, want 2", seen)
	}
}

// A squash at seq drops every waiter younger than seq from every live
// MSHR, in place: the survivors keep their merge order (which is not seq
// order: loads issue out of order), the list keeps its capacity, and what
// merged is still known.
func TestMSHRDropWaitersAfter(t *testing.T) {
	f := NewMSHRFile(4)
	a, b := f.Alloc(0x1000, false), f.Alloc(0x2000, true)
	for _, s := range []uint64{12, 30, 7, 20, 31, 9} {
		a.Merge(Waiter{Seq: s}, s == 30)
	}
	b.Merge(Waiter{Seq: 40, GotSpec: true}, false)
	capA, backingA := cap(a.Waiters), &a.Waiters[0]
	f.DropWaitersAfter(20)
	var got []uint64
	for _, w := range a.Waiters {
		got = append(got, w.Seq)
	}
	if want := []uint64{12, 7, 20, 9}; !slices.Equal(got, want) {
		t.Fatalf("waiters after a squash at 20: %v, want %v", got, want)
	}
	if cap(a.Waiters) != capA || &a.Waiters[0] != backingA {
		t.Fatal("the prune moved the list off its backing array")
	}
	if len(b.Waiters) != 0 {
		t.Fatalf("the other MSHR kept %d waiters younger than the cut", len(b.Waiters))
	}
	if !a.LoadMerged || a.LLSeq != 30 || !b.LoadMerged || b.LLSeq != 0 {
		t.Fatalf("merge facts after the prune: a load=%v ll=%d, b load=%v ll=%d; want true 30 true 0",
			a.LoadMerged, a.LLSeq, b.LoadMerged, b.LLSeq)
	}
	f.DropWaitersAfter(100) // a cut above every waiter drops nothing
	if len(a.Waiters) != 4 {
		t.Fatalf("a cut above every waiter left %d of 4", len(a.Waiters))
	}
	f.Free(a)
	if a.LoadMerged || a.LLSeq != 0 || len(a.Waiters) != 0 || cap(a.Waiters) != capA {
		t.Fatalf("Free left load=%v ll=%d, %d waiters, capacity %d (want %d)",
			a.LoadMerged, a.LLSeq, len(a.Waiters), cap(a.Waiters), capA)
	}
}

// fullMSHRFile returns an n-entry file with every entry live, on lines
// 0x1000, 0x1040, ...
func fullMSHRFile(n int) *MSHRFile {
	f := NewMSHRFile(n)
	for i := 0; i < n; i++ {
		f.Alloc(0x1000+uint64(i)*mem.LineSize, false)
	}
	return f
}

// A full file answers Alloc from its occupancy count, and the
// duplicate-line check still comes first.
func TestMSHRAllocOnFullFile(t *testing.T) {
	f := fullMSHRFile(8)
	if f.Alloc(0x9000, false) != nil {
		t.Fatal("alloc on a full file succeeded")
	}
	if f.InUse() != 8 {
		t.Fatalf("refused alloc changed the occupancy to %d", f.InUse())
	}
	f.Free(f.Lookup(0x1040))
	if m := f.Alloc(0x9000, true); m == nil || m.Addr != 0x9000 || f.InUse() != 8 {
		t.Fatalf("alloc after a free on a full file = %+v, in use %d", m, f.InUse())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate alloc on a full file must panic")
		}
	}()
	f.Alloc(0x1008, false)
}

// The two calls a load retrying against an exhausted file makes every
// cycle: the lookup that finds no MSHR for its line, and the alloc that
// finds none free.
func BenchmarkMSHRFileLookupMiss(b *testing.B) {
	f := fullMSHRFile(8)
	for i := 0; i < b.N; i++ {
		if f.Lookup(0x9000) != nil {
			b.Fatal("hit")
		}
	}
}

func BenchmarkMSHRFileAllocFull(b *testing.B) {
	f := fullMSHRFile(8)
	for i := 0; i < b.N; i++ {
		if f.Alloc(0x9000, false) != nil {
			b.Fatal("allocated")
		}
	}
}
