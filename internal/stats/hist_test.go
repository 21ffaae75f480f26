package stats

import (
	"encoding/json"
	"testing"
)

func TestHistBuckets(t *testing.T) {
	var h Hist
	// bucket 0 holds exactly the value 0; bucket i holds [2^(i-1), 2^i).
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {1 << 62, 63}, {^uint64(0), 64},
	}
	for _, c := range cases {
		h.Observe(c.v)
		if lo, hi := BucketLo(c.bucket), BucketHi(c.bucket); c.v < lo || c.v > hi {
			t.Errorf("value %d expected in bucket %d = [%d,%d]", c.v, c.bucket, lo, hi)
		}
	}
	snap := h.Snapshot()
	for _, c := range cases {
		found := false
		for _, b := range snap.Buckets {
			if c.v >= b.Lo && c.v <= b.Hi && b.Count > 0 {
				found = true
			}
		}
		if !found {
			t.Errorf("value %d not covered by any non-empty snapshot bucket", c.v)
		}
	}
	if h.N() != uint64(len(cases)) {
		t.Errorf("N = %d, want %d", h.N(), len(cases))
	}
	if h.Min() != 0 || h.Max() != ^uint64(0) {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistMeanAndQuantiles(t *testing.T) {
	var h Hist
	for v := uint64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if got := h.Mean(); got < 50 || got > 51 {
		t.Errorf("mean = %.2f, want 50.5", got)
	}
	// Quantiles are bucket upper bounds: p50 of 1..100 lands in
	// [32,64), p99 in [64,128) clamped to the observed max.
	if q := h.Quantile(0.5); q < 50 || q > 64 {
		t.Errorf("p50 = %d, want within [50,64]", q)
	}
	if q := h.Quantile(0.99); q < 99 || q > 100 {
		t.Errorf("p99 = %d, want within [99,100] (clamped to max)", q)
	}
	if q := h.Quantile(0); q == 0 && h.Min() > 0 {
		t.Errorf("q0 = %d below min %d", q, h.Min())
	}
}

func TestHistRegistry(t *testing.T) {
	c := NewCounters()
	h := c.Hist("lat/test")
	if h == nil {
		t.Fatal("Hist returned nil")
	}
	if c.Hist("lat/test") != h {
		t.Error("Hist is not get-or-create: second lookup returned a different histogram")
	}
	h.Observe(7)
	c.Hist("occ/other")

	snaps := c.HistSnapshots()
	if len(snaps) != 2 {
		t.Fatalf("HistSnapshots has %d entries, want 2 (empty hists included)", len(snaps))
	}
	if snaps["lat/test"].N != 1 || snaps["occ/other"].N != 0 {
		t.Errorf("snapshot counts wrong: %+v", snaps)
	}
}

func TestHistSnapshotJSON(t *testing.T) {
	var h Hist
	for _, v := range []uint64{3, 5, 900} {
		h.Observe(v)
	}
	b, err := json.Marshal(h.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var back HistSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.N != 3 || back.Min != 3 || back.Max != 900 || len(back.Buckets) == 0 {
		t.Errorf("snapshot did not round-trip: %+v", back)
	}
	// The verbose line reads the snapshot, so a report's copy prints it too.
	if got, want := back.String(), "n=3 mean=302.7 min=3 p50≤7 p90≤900 p99≤900 max=900"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if got := (HistSnapshot{}).String(); got != "n=0" {
		t.Errorf("empty String() = %q, want n=0", got)
	}
}
