package check_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tssim/internal/litmus"
	"tssim/internal/sim"
)

func TestReproRoundTrip(t *testing.T) {
	emestiLVP := sim.Techniques{MESTI: true, EMESTI: true, LVP: true}
	cases := []litmus.Repro{
		{Params: litmus.Params{Seed: 0x1234, CPUs: 2, Ops: 7}},
		{Params: litmus.Params{Seed: 0xdeadbeefcafef00d, CPUs: 4, Ops: 48}, Variant: litmus.Variant{Tech: emestiLVP}, Pinned: true},
		{Params: litmus.Params{Seed: 1, CPUs: 3, Ops: 12}, Variant: litmus.Variant{NoFF: true}, Pinned: true},
		{Params: litmus.Params{Seed: 0, CPUs: 2, Ops: 1}, Variant: litmus.Variant{Tech: sim.Techniques{MESTI: true}}, Pinned: true},
		// A generated program on another fabric, swept and pinned.
		{Params: litmus.Params{Seed: 0x77, CPUs: 8, Ops: 16}, Variant: litmus.Variant{Interconnect: "directory"}},
		{Params: litmus.Params{Seed: 0x77, CPUs: 16, Ops: 16}, Variant: litmus.Variant{Tech: emestiLVP, NoFF: true, Interconnect: "directory"}, Pinned: true},
		// A shape at one grid point.
		{Shape: "SB", Variant: litmus.Variant{Offsets: []uint64{0, 320}, Delays: []int{500, 0}, ArbStart: 1,
			Tech: emestiLVP, Seed: 1, Interconnect: "directory"}, Pinned: true},
		{Shape: "IRIW-silent", Variant: litmus.Variant{Seed: 4}, Pinned: true},
	}
	for _, r := range cases {
		// Params round-trip through normalization.
		if r.Shape == "" {
			r.Params = normalized(r.Params)
		}
		got, err := litmus.ParseRepro(r.String())
		if err != nil {
			t.Fatalf("ParseRepro(%q): %v", r.String(), err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip: %q -> %+v, want %+v", r.String(), got, r)
		}
	}
}

// Every corpus line reads as the run the historical syntax named: the
// same program, combo and kernel path, on the atomic bus unless ic=
// names another fabric.
func TestReproReadsCorpus(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "litmus_corpus.txt"))
	if err != nil {
		t.Fatal(err)
	}
	type run struct {
		p    litmus.Params
		tech string // "" = every combo
		noFF bool
		ic   string
	}
	want := []run{
		{litmus.Params{Seed: 0x1, CPUs: 2, Ops: 1}, "", false, ""},
		{litmus.Params{Seed: 0x3, CPUs: 2, Ops: 3}, "", false, ""},
		{litmus.Params{Seed: 0x7f, CPUs: 2, Ops: 6}, "", false, ""},
		{litmus.Params{Seed: 0xbad5eed5, CPUs: 2, Ops: 12}, "MESTI", false, ""},
		{litmus.Params{Seed: 0xbad5eed5, CPUs: 2, Ops: 12}, "MESTI", true, ""},
		{litmus.Params{Seed: 0x9e3779b97f4a7c15, CPUs: 2, Ops: 10}, "E-MESTI", false, ""},
		{litmus.Params{Seed: 0x94d049bb133111eb, CPUs: 3, Ops: 14}, "E-MESTI+LVP", false, ""},
		{litmus.Params{Seed: 0xcafef00dd15ea5e5, CPUs: 3, Ops: 16}, "SLE", true, ""},
		{litmus.Params{Seed: 0x2545f4914f6cdd1d, CPUs: 4, Ops: 20}, "E-MESTI+LVP+SLE", false, ""},
		{litmus.Params{Seed: 0xfedcba9876543210, CPUs: 4, Ops: 24}, "", false, ""},
		{litmus.Params{Seed: 0x47, CPUs: 16, Ops: 8}, "SLE", false, ""},
		{litmus.Params{Seed: 0x47, CPUs: 16, Ops: 8}, "SLE", false, "directory"},
		{litmus.Params{Seed: 0x47, CPUs: 16, Ops: 8}, "SLE", false, "splitbus"},
		{litmus.Params{Seed: 0x4242424242424242, CPUs: 16, Ops: 16}, "", false, ""},
		{litmus.Params{Seed: 0x4242424242424242, CPUs: 16, Ops: 16}, "", false, "directory"},
		{litmus.Params{Seed: 0x4242424242424242, CPUs: 16, Ops: 16}, "", false, "splitbus"},
	}
	var got []run
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := litmus.ParseRepro(line)
		if err != nil {
			t.Fatalf("corpus line %q: %v", line, err)
		}
		if r.Shape != "" || r.Variant.Offsets != nil || r.Variant.ArbStart != 0 {
			t.Errorf("corpus line %q: read as %+v, not a generated program on the default schedule", line, r)
		}
		one := run{p: r.Params, noFF: r.Variant.NoFF, ic: r.Variant.Interconnect}
		if r.Pinned {
			one.tech = r.Variant.Tech.String()
		}
		got = append(got, one)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("corpus reads as\n%+v\nwant\n%+v", got, want)
	}
}

func TestReproParseLegacyAndErrors(t *testing.T) {
	// The historical bare form the old shrinker printed must parse.
	r, err := litmus.ParseRepro("seed=0xbad5eed5 cpus=3 ops=48")
	if err != nil {
		t.Fatal(err)
	}
	if r.Pinned || r.Variant.NoFF {
		t.Fatalf("bare form should leave tech/path zero: %+v", r)
	}
	if r.Params.Seed != 0xbad5eed5 || r.Params.CPUs != 3 || r.Params.Ops != 48 {
		t.Fatalf("params = %+v", r.Params)
	}
	for _, bad := range []string{
		"",
		"seed=0x1 cpus=2",
		"seed=zz cpus=2 ops=3",
		"seed=0x1 cpus=2 ops=3 bogus=1",
		"seed=0x1 cpus=2 ops=3 path=sideways",
		"seed=0x1 cpus=2 ops=3 tech=nope",
		"seed=0x1 cpus=2 ops=3 ic=mesh",
		"shape=nope",
		"off=[0 0] tech=MESTI",              // no program
		"seed=0x1 cpus=2 ops=3 arb=1",       // a program's schedule is the default
		"seed=0x1 cpus=2 ops=3 dly=[0 500]", // ... and it has no splice point
		"shape=SB off=[0 x]",
		"shape=SB off=0",
	} {
		if _, err := litmus.ParseRepro(bad); err == nil {
			t.Errorf("ParseRepro(%q) should fail", bad)
		}
	}
}
