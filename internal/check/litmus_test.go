package check_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tssim/internal/litmus"
	"tssim/internal/sim"
)

// litmusReplay re-runs one failing run printed by the fuzz shrinker or
// an enumeration report: go test ./internal/check -run TestLitmusReplay
// -litmus.replay "seed=0x1234 cpus=2 ops=7 tech=E-MESTI path=noff", or
// "shape=SB" and the point after "first at". A generated program
// without tech= runs under every combo.
var litmusReplay = flag.String("litmus.replay", "", "replay one litmus run (format: shape=NAME off=[…] dly=[…] arb=N tech=COMBO path=ff|noff seed=N [ic=KIND], or seed=0x… cpus=N ops=M [tech=COMBO path=ff|noff] [ic=KIND])")

// all is the full technique stack, the last of the bookend combos.
var all = sim.Techniques{MESTI: true, EMESTI: true, LVP: true, SLE: true}

// runs lists the runs r names: its own when pinned, else its point
// under every technique combo of Figure 7 — on both kernel paths for
// the bookend combos (baseline and the full stack), so each fuzz
// iteration also differentially covers the kernel without doubling the
// whole sweep.
func runs(r litmus.Repro) []litmus.Repro {
	if r.Pinned {
		return []litmus.Repro{r}
	}
	var out []litmus.Repro
	for _, tech := range sim.AllCombos() {
		r.Pinned, r.Variant.Tech, r.Variant.NoFF = true, tech, false
		out = append(out, r)
		if tech == (sim.Techniques{}) || tech == all {
			r.Variant.NoFF = true
			out = append(out, r)
		}
	}
	return out
}

// runProgram runs one generated program at v, with the program's seed
// as the machine's, and returns the run's error (a checker violation,
// or finals off the closed-form expectation) and the finals it read.
func runProgram(p litmus.Params, v litmus.Variant) (map[uint64]uint64, sim.Result, error) {
	w, expected := litmus.Program(p)
	v.Seed = p.Seed
	sys, r, err := litmus.Run(w, v)
	finals := make(map[uint64]uint64, len(expected))
	for a := range expected {
		finals[a] = sys.ReadWordCoherent(a)
	}
	return finals, r, err
}

// replay runs every run r names and returns the first that fails,
// pinned: for a shape, an outcome outside the allowed set; for a
// generated program, finals off the closed form or off the first run's.
func replay(r litmus.Repro) (litmus.Repro, error) {
	var first map[uint64]uint64
	for _, one := range runs(r) {
		fail := func(format string, args ...any) (litmus.Repro, error) {
			return one, fmt.Errorf("%s: %s", one, fmt.Sprintf(format, args...))
		}
		if one.Shape != "" {
			s := litmus.ShapeByName(one.Shape)
			oc, err := litmus.RunShape(s, one.Variant)
			if err != nil {
				return fail("%v", err)
			}
			if !s.Allowed()[oc] {
				return fail("outcome %s outside allowed set %v", oc, s.AllowedList())
			}
			continue
		}
		finals, _, err := runProgram(one.Params, one.Variant)
		if err != nil {
			return fail("%v", err)
		}
		if first == nil {
			first = finals
			continue
		}
		for a, v := range finals {
			if fv := first[a]; v != fv {
				return fail("final @%#x = %#x diverges from baseline %#x", a, v, fv)
			}
		}
	}
	return r, nil
}

// reportLitmusFailure shrinks a failing program to its minimal
// reproducer and fails the test with a replayable command line that
// names the failing combo and kernel path.
func reportLitmusFailure(t *testing.T, r litmus.Repro, err error) {
	t.Helper()
	min := shrink(r.Params, func(cand litmus.Params) bool {
		r.Params = cand
		_, err := replay(r)
		return err != nil
	})
	r.Params = min
	minRepro, minErr := replay(r)
	t.Fatalf("litmus failure: %v\nminimal reproducer: %v (%s)\nreplay with: go test ./internal/check -run TestLitmusReplay -litmus.replay %q",
		err, minErr, minRepro, minRepro.String())
}

// normalized is p as litmus.Program runs it: Params.String prints the
// clamped fields and ParseRepro reads them back.
func normalized(p litmus.Params) litmus.Params {
	r, err := litmus.ParseRepro(p.String())
	if err != nil {
		panic(err)
	}
	return r.Params
}

// shrink greedily minimizes a failing params tuple: it walks Ops
// down (halving, then decrementing) and then CPUs down, keeping every
// step for which fails still reports true. The result is the smallest
// program the caller's predicate still rejects — what the fuzz harness
// prints as the replayable reproducer.
func shrink(p litmus.Params, fails func(litmus.Params) bool) litmus.Params {
	p = normalized(p)
	for p.Ops > 1 {
		cand := p
		cand.Ops = p.Ops / 2
		if !fails(normalized(cand)) {
			break
		}
		p = normalized(cand)
	}
	for p.Ops > 1 {
		cand := p
		cand.Ops--
		if !fails(normalized(cand)) {
			break
		}
		p = normalized(cand)
	}
	for p.CPUs > 2 {
		cand := p
		cand.CPUs--
		if !fails(normalized(cand)) {
			break
		}
		p = normalized(cand)
	}
	return p
}

// TestLitmusCorpus runs a fixed corpus of litmus programs — a breadth
// of seeds, CPU counts, and lengths — differentially across all nine
// combos with the checker on. This is the deterministic regression
// net; FuzzLitmus explores beyond it.
func TestLitmusCorpus(t *testing.T) {
	corpus := []litmus.Params{
		{Seed: 0x0000000000000001, CPUs: 2, Ops: 8},
		{Seed: 0x0000000000000002, CPUs: 2, Ops: 24},
		{Seed: 0xdeadbeefcafef00d, CPUs: 2, Ops: 48},
		{Seed: 0x0123456789abcdef, CPUs: 3, Ops: 12},
		{Seed: 0xfedcba9876543210, CPUs: 3, Ops: 32},
		{Seed: 0x00000000bad5eed5, CPUs: 3, Ops: 48},
		{Seed: 0x1111111111111111, CPUs: 4, Ops: 8},
		{Seed: 0x2222222222222222, CPUs: 4, Ops: 16},
		{Seed: 0x4242424242424242, CPUs: 4, Ops: 24},
		{Seed: 0x9e3779b97f4a7c15, CPUs: 4, Ops: 32},
		{Seed: 0xbf58476d1ce4e5b9, CPUs: 4, Ops: 40},
		{Seed: 0x94d049bb133111eb, CPUs: 4, Ops: 48},
	}
	if testing.Short() {
		corpus = corpus[:4]
	}
	for _, p := range corpus {
		r := litmus.Repro{Params: p}
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			if _, err := replay(r); err != nil {
				reportLitmusFailure(t, r, err)
			}
		})
	}
}

// TestLitmusCorpusFile replays the promoted fuzz corpus in
// testdata/litmus_corpus.txt: every line is a shrunk reproducer in
// -litmus.replay syntax, optionally pinned to the combo and kernel
// path that originally failed. This is the file the fuzz failure
// recipe tells you to append to, and it runs on every `go test`.
func TestLitmusCorpusFile(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "litmus_corpus.txt"))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		r, err := litmus.ParseRepro(line)
		if err != nil {
			t.Fatalf("corpus line %q: %v", line, err)
		}
		n++
		if testing.Short() && !r.Pinned && r.Params.Ops > 8 {
			continue // full-sweep lines dominate the cost; keep -short fast
		}
		t.Run(r.String(), func(t *testing.T) {
			t.Parallel()
			if _, err := replay(r); err != nil {
				t.Fatalf("corpus regression %s: %v", r, err)
			}
		})
	}
	if n == 0 {
		t.Fatal("corpus file has no entries")
	}
}

// FuzzLitmus is the randomized protocol fuzzer: any three fuzz inputs
// name a valid program (litmus.Program normalizes them), which runs
// under all nine combos with the coherence checker attached. A failure
// is shrunk to a minimal reproducer and printed in replayable form.
func FuzzLitmus(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(8))
	f.Add(uint64(0xdeadbeefcafef00d), uint8(4), uint8(48))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(3), uint8(24))
	f.Add(uint64(0x4242424242424242), uint8(4), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, cpus, ops uint8) {
		r := litmus.Repro{Params: litmus.Params{Seed: seed, CPUs: int(cpus), Ops: int(ops)}}
		if _, err := replay(r); err != nil {
			reportLitmusFailure(t, r, err)
		}
	})
}

// TestLitmusReplay re-runs one repro from the -litmus.replay flag; it
// is the second half of the shrinker's reproducer recipe. A repro with
// tech= replays exactly the pinned run; without it, every combo runs.
func TestLitmusReplay(t *testing.T) {
	if *litmusReplay == "" {
		t.Skip("no -litmus.replay given")
	}
	r, err := litmus.ParseRepro(*litmusReplay)
	if err != nil {
		t.Fatalf("cannot parse -litmus.replay: %v", err)
	}
	if _, err := replay(r); err != nil {
		t.Fatalf("replay %s: %v", r, err)
	}
}
