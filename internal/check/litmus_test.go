package check_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tssim/internal/check"
	"tssim/internal/checkrun"
	"tssim/internal/sim"
)

// litmusReplay re-runs one failing program printed by the fuzz
// shrinker: go test ./internal/check -run TestLitmusReplay
// -litmus.replay "seed=0x1234 cpus=2 ops=7 tech=E-MESTI path=noff"
// (the tech/path fields are optional; without them every combo runs).
var litmusReplay = flag.String("litmus.replay", "", "replay one litmus program (format: seed=0x… cpus=N ops=M [tech=COMBO path=ff|noff])")

// runLitmusOne runs one litmus program under one technique combo and
// kernel path on the litmus machine (checkrun.MachineConfig: tiny
// caches, both checkers on) and returns the observed finals.
func runLitmusOne(p check.LitmusParams, tech sim.Techniques, noFF bool) (map[uint64]uint64, error) {
	w, expected := check.Litmus(p)
	cfg := checkrun.MachineConfig(tech, len(w.Programs), int64(p.Seed))
	cfg.NoFastForward = noFF
	s := sim.New(cfg, w)
	if _, err := s.RunErr(w); err != nil {
		return nil, err
	}
	finals := make(map[uint64]uint64, len(expected))
	for a := range expected {
		finals[a] = s.ReadWordCoherent(a)
	}
	return finals, nil
}

// litmusPaths returns the kernel paths to sweep for a combo: the
// fast-forward path always, plus the naive every-cycle path for the
// bookend combos (baseline and the full stack), so each fuzz
// iteration also differentially covers the kernel without doubling
// the whole sweep.
func litmusPaths(tech sim.Techniques) []bool {
	if s := tech.String(); s == "Baseline" || s == "E-MESTI+LVP+SLE" {
		return []bool{false, true}
	}
	return []bool{false}
}

// runLitmusAll runs one litmus program under every technique combo of
// Figure 7 (and both kernel paths for the bookend combos) with the
// coherence checker attached, validates each run's finals against the
// closed-form expectation, and differentially compares every run's
// finals against the first run's. On failure the returned Repro pins
// the exact combo and path that diverged.
func runLitmusAll(p check.LitmusParams) (check.Repro, error) {
	var baseline map[uint64]uint64
	for _, tech := range sim.AllCombos() {
		for _, noFF := range litmusPaths(tech) {
			repro := check.Repro{Params: p, Tech: tech.String(), NoFastForward: noFF}
			finals, err := runLitmusOne(p, tech, noFF)
			if err != nil {
				return repro, fmt.Errorf("%s: %w", repro, err)
			}
			if baseline == nil {
				baseline = finals
				continue
			}
			for a, v := range finals {
				if bv := baseline[a]; v != bv {
					return repro, fmt.Errorf("%s: final @%#x = %#x diverges from baseline %#x",
						repro, a, v, bv)
				}
			}
		}
	}
	return check.Repro{Params: p}, nil
}

// runLitmusRepro replays one Repro: the pinned combo/path when the
// repro names one, the full sweep otherwise.
func runLitmusRepro(r check.Repro) error {
	if r.Tech == "" {
		_, err := runLitmusAll(r.Params)
		return err
	}
	tech, err := sim.ParseTechniques(r.Tech)
	if err != nil {
		return err
	}
	_, err = runLitmusOne(r.Params, tech, r.NoFastForward)
	return err
}

// reportLitmusFailure shrinks a failing program to its minimal
// reproducer and fails the test with a replayable command line that
// names the failing combo and kernel path.
func reportLitmusFailure(t *testing.T, p check.LitmusParams, err error) {
	t.Helper()
	min := check.ShrinkLitmus(p, func(cand check.LitmusParams) bool {
		_, err := runLitmusAll(cand)
		return err != nil
	})
	minRepro, minErr := runLitmusAll(min)
	t.Fatalf("litmus failure: %v\nminimal reproducer: %v (%s)\nreplay with: go test ./internal/check -run TestLitmusReplay -litmus.replay %q",
		err, minErr, minRepro, minRepro.String())
}

// TestLitmusCorpus runs a fixed corpus of litmus programs — a breadth
// of seeds, CPU counts, and lengths — differentially across all nine
// combos with the checker on. This is the deterministic regression
// net; FuzzLitmus explores beyond it.
func TestLitmusCorpus(t *testing.T) {
	corpus := []check.LitmusParams{
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
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			if _, err := runLitmusAll(p); err != nil {
				reportLitmusFailure(t, p, err)
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
		r, err := check.ParseRepro(line)
		if err != nil {
			t.Fatalf("corpus line %q: %v", line, err)
		}
		n++
		if testing.Short() && r.Tech == "" && r.Params.Ops > 8 {
			continue // full-sweep lines dominate the cost; keep -short fast
		}
		t.Run(r.String(), func(t *testing.T) {
			t.Parallel()
			if err := runLitmusRepro(r); err != nil {
				t.Fatalf("corpus regression %s: %v", r, err)
			}
		})
	}
	if n == 0 {
		t.Fatal("corpus file has no entries")
	}
}

// FuzzLitmus is the randomized protocol fuzzer: any three fuzz inputs
// name a valid program (Litmus normalizes them), which runs under all
// nine combos with the coherence checker attached. A failure is
// shrunk to a minimal reproducer and printed in replayable form.
func FuzzLitmus(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(8))
	f.Add(uint64(0xdeadbeefcafef00d), uint8(4), uint8(48))
	f.Add(uint64(0x9e3779b97f4a7c15), uint8(3), uint8(24))
	f.Add(uint64(0x4242424242424242), uint8(4), uint8(16))
	f.Fuzz(func(t *testing.T, seed uint64, cpus, ops uint8) {
		p := check.LitmusParams{Seed: seed, CPUs: int(cpus), Ops: int(ops)}
		if _, err := runLitmusAll(p); err != nil {
			reportLitmusFailure(t, p, err)
		}
	})
}

// TestLitmusReplay re-runs one program from the -litmus.replay flag;
// it is the second half of the shrinker's reproducer recipe. A repro
// with tech=/path= fields replays exactly the pinned run; the bare
// form sweeps every combo.
func TestLitmusReplay(t *testing.T) {
	if *litmusReplay == "" {
		t.Skip("no -litmus.replay given")
	}
	r, err := check.ParseRepro(*litmusReplay)
	if err != nil {
		t.Fatalf("cannot parse -litmus.replay: %v", err)
	}
	if err := runLitmusRepro(r); err != nil {
		t.Fatalf("replay %s: %v", r, err)
	}
}
