package cache

import (
	"testing"
	"testing/quick"
	"unsafe"

	"tssim/internal/mem"
)

func cfg(size, assoc int) Config { return Config{SizeBytes: size, Assoc: assoc} }

func TestConfigValidate(t *testing.T) {
	if err := cfg(8192, 4).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := cfg(32, 1).Validate(); err == nil {
		t.Fatal("sub-line cache accepted")
	}
	if err := cfg(8192, 0).Validate(); err == nil {
		t.Fatal("zero associativity accepted")
	}
	if err := cfg(192*64, 3).Validate(); err != nil {
		// 192 lines, 3 ways -> 64 sets: power of two, fine.
		t.Fatalf("unexpected rejection: %v", err)
	}
	if err := cfg(96*64, 1).Validate(); err == nil {
		t.Fatal("non-power-of-two set count accepted")
	}
}

func TestConfigSets(t *testing.T) {
	if got := cfg(8192, 4).Sets(); got != 32 {
		t.Fatalf("sets = %d, want 32", got)
	}
	if got := cfg(64, 1).Sets(); got != 1 {
		t.Fatalf("single-line cache sets = %d, want 1", got)
	}
}

func TestLookupMissAndAllocate(t *testing.T) {
	c := New(cfg(4096, 4))
	if c.Lookup(0x1000) != nil {
		t.Fatal("empty cache hit")
	}
	f, ev := c.Allocate(0x1008) // unaligned address, line 0x1000
	if ev.Allocated {
		t.Fatal("eviction from empty set")
	}
	if f.Addr != 0x1000 {
		t.Fatalf("frame addr = %#x, want 0x1000", f.Addr)
	}
	f.State = 2
	f.Data.SetWord(1, 77)
	got := c.Lookup(0x1038) // any address in the same line
	if got == nil || got.Data.Word(1) != 77 || got.State != 2 {
		t.Fatal("lookup after allocate failed")
	}
}

func TestAllocateResidentPanics(t *testing.T) {
	c := New(cfg(4096, 4))
	c.Allocate(0x1000)
	defer func() {
		if recover() == nil {
			t.Fatal("double allocate must panic")
		}
	}()
	c.Allocate(0x1000)
}

func TestLRUEviction(t *testing.T) {
	// 2-way, so three distinct lines mapping to one set force an
	// eviction of the least recently touched.
	c := New(cfg(2*64, 2)) // 1 set, 2 ways
	a, _ := c.Allocate(0x000)
	c.Touch(a)
	b, _ := c.Allocate(0x040)
	c.Touch(b)
	c.Touch(c.Lookup(0x000)) // line 0 now MRU
	_, ev := c.Allocate(0x080)
	if !ev.Allocated || ev.Addr != 0x040 {
		t.Fatalf("evicted %#x (alloc=%v), want 0x40", ev.Addr, ev.Allocated)
	}
	if c.Lookup(0x000) == nil || c.Lookup(0x080) == nil || c.Lookup(0x040) != nil {
		t.Fatal("post-eviction contents wrong")
	}
}

func TestEvictableHook(t *testing.T) {
	c := New(cfg(2*64, 2))
	a, _ := c.Allocate(0x000)
	c.Touch(a)
	b, _ := c.Allocate(0x040)
	c.Touch(b)
	c.Touch(c.Lookup(0x040))
	// LRU is line 0x000; pin it and the victim must be 0x040.
	c.Evictable = func(l *Line) bool { return l.Addr != 0x000 }
	_, ev := c.Allocate(0x080)
	if ev.Addr != 0x040 {
		t.Fatalf("pinned line evicted anyway: %#x", ev.Addr)
	}
	// When everything is pinned, fall back to plain LRU rather than
	// failing.
	c.Evictable = func(l *Line) bool { return false }
	_, ev = c.Allocate(0x0c0)
	if !ev.Allocated {
		t.Fatal("fallback eviction did not happen")
	}
}

func TestDrop(t *testing.T) {
	c := New(cfg(4096, 4))
	c.Allocate(0x1000)
	if !c.Drop(0x1020) {
		t.Fatal("drop of resident line failed")
	}
	if c.Lookup(0x1000) != nil {
		t.Fatal("line survived drop")
	}
	if c.Drop(0x1000) {
		t.Fatal("drop of absent line reported success")
	}
}

// An L2 of Lines is most of what a machine allocates (the benchmark's
// alloc_mb): the field order keeps the struct at 88 bytes — eight bytes
// of flags, protocol state and protocol stamp, then address, 64 data
// bytes and the recency stamp.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(Line{}); got != 88 {
		t.Fatalf("unsafe.Sizeof(cache.Line{}) = %d, want 88", got)
	}
}

// ForEach hands out the lines themselves, protocol state included: the
// census the checkers take of a cache.
func TestCountState(t *testing.T) {
	c := New(cfg(4096, 4))
	for i := 0; i < 5; i++ {
		f, _ := c.Allocate(uint64(i) * 64)
		f.State = uint8(i % 2)
	}
	var byState [2]int
	c.ForEach(func(l *Line) { byState[l.State]++ })
	if byState != [2]int{3, 2} {
		t.Fatalf("lines by state = %v, want [3 2]", byState)
	}
}

func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	f := func(addrs []uint32) bool {
		c := New(cfg(2048, 4))
		for _, a := range addrs {
			la := mem.LineAddr(uint64(a))
			if c.Lookup(la) == nil {
				c.Allocate(la)
			}
		}
		n := 0
		c.ForEach(func(*Line) { n++ })
		return n <= 2048/mem.LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
