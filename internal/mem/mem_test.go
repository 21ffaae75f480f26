package mem

import (
	"testing"
	"testing/quick"
)

func TestLineArithmetic(t *testing.T) {
	cases := []struct {
		addr     uint64
		lineAddr uint64
		wordIdx  int
	}{
		{0, 0, 0},
		{63, 0, 7},
		{64, 64, 0},
		{0x1234, 0x1200, 6},
		{0xFFFF_FFFF_FFFF_FFC8, 0xFFFF_FFFF_FFFF_FFC0, 1},
	}
	for _, c := range cases {
		if got := LineAddr(c.addr); got != c.lineAddr {
			t.Errorf("LineAddr(%#x) = %#x, want %#x", c.addr, got, c.lineAddr)
		}
		if got := WordIndex(c.addr); got != c.wordIdx {
			t.Errorf("WordIndex(%#x) = %d, want %d", c.addr, got, c.wordIdx)
		}
	}
}

func TestAlignWord(t *testing.T) {
	if AlignWord(0x17) != 0x10 {
		t.Fatalf("AlignWord(0x17) = %#x", AlignWord(0x17))
	}
	if AlignWord(0x18) != 0x18 {
		t.Fatalf("AlignWord(0x18) = %#x", AlignWord(0x18))
	}
}

func TestReadWriteWord(t *testing.T) {
	m := New()
	if got := m.ReadWord(0x1000); got != 0 {
		t.Fatalf("fresh memory read = %d, want 0", got)
	}
	m.WriteWord(0x1000, 42)
	m.WriteWord(0x1008, 43)
	if m.ReadWord(0x1000) != 42 || m.ReadWord(0x1008) != 43 {
		t.Fatal("adjacent words interfere")
	}
	// Unaligned address reads the containing aligned word.
	if m.ReadWord(0x1003) != 42 {
		t.Fatal("sub-word addressing should hit the containing word")
	}
}

func TestReadWriteLine(t *testing.T) {
	m := New()
	var l Line
	for i := range l {
		l[i] = uint64(i * 7)
	}
	m.WriteLine(0x2000, l)
	got := m.ReadLine(0x2010) // any address within the line
	if !got.Equal(&l) {
		t.Fatalf("line round-trip mismatch: %v vs %v", got, l)
	}
	// ReadLine returns a copy, not a view.
	got[0] = 999
	again := m.ReadLine(0x2000)
	if again[0] != 0 {
		t.Fatal("ReadLine must copy")
	}
}

func TestLineEqual(t *testing.T) {
	var a, b Line
	if !a.Equal(&b) {
		t.Fatal("zero lines should be equal")
	}
	b[3] = 1
	if a.Equal(&b) {
		t.Fatal("differing lines reported equal")
	}
	b[3] = 0
	if !a.Equal(&b) {
		t.Fatal("reverted line should be equal again (temporal silence)")
	}
}

func TestTouchedLines(t *testing.T) {
	m := New()
	m.WriteWord(0, 1)
	m.WriteWord(8, 2)    // same line
	m.WriteWord(64, 3)   // second line
	m.WriteWord(4096, 4) // third line
	if got := m.String(); got != "mem{3 lines, 0 KiB}" {
		t.Fatalf("footprint = %s, want 3 lines", got)
	}
}

func TestWordRoundTripProperty(t *testing.T) {
	// Property: a written word is read back exactly, and writes to
	// other word slots never disturb it.
	f := func(addr uint64, v uint64, otherOff uint8, ov uint64) bool {
		m := New()
		a := AlignWord(addr)
		m.WriteWord(a, v)
		other := AlignWord(a + uint64(otherOff)*8 + 8)
		if other != a {
			m.WriteWord(other, ov)
		}
		return m.ReadWord(a) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLineWordViewProperty(t *testing.T) {
	// Property: WriteWord and WriteLine agree — writing word k of a
	// line via WriteWord equals mutating slot k of the Line.
	f := func(base uint64, k uint8, v uint64) bool {
		m1, m2 := New(), New()
		line := LineAddr(base)
		slot := int(k) % WordsPerLine
		m1.WriteWord(line+uint64(slot*WordSize), v)
		var l Line
		l.SetWord(slot, v)
		m2.WriteLine(line, l)
		a := m1.ReadLine(line)
		b := m2.ReadLine(line)
		return a.Equal(&b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
