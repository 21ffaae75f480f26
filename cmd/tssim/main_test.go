package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"tssim/internal/sim"
	"tssim/internal/stats"
)

// TestMain lets the test binary stand in for the command: re-executed
// with TSSIM_TEST_MAIN set, it runs main with the given arguments on a
// flag set free of the testing package's own flags.
func TestMain(m *testing.M) {
	if os.Getenv("TSSIM_TEST_MAIN") != "" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command and returns what it printed and its exit
// status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TSSIM_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// usageError checks that args are refused as a usage error: exit status
// 2 and one line containing want, no stack trace.
func usageError(t *testing.T, want string, args ...string) {
	t.Helper()
	out, code := runMain(t, args...)
	if code != 2 || !strings.Contains(out, want) || strings.Contains(out, "goroutine") || strings.Count(out, "\n") != 1 {
		t.Errorf("%v: want exit status 2 and one line with %q, got status %d:\n%s", args, want, code, out)
	}
}

// The rules for the flags shared with cmd/experiments live, and are
// tested row by row, in internal/cli; this one row proves main is wired
// to them.
func TestCPUsOutOfRangeRejected(t *testing.T) {
	usageError(t, "-cpus 65: must be between 1 and 64", "-workload", "tpc-b", "-cpus", "65")
}

// The sizes and names tssim checks itself: a technique the parser does
// not know (the message names "baseline", the one spelling of no
// technique it takes), a generator that does not exist, and flags that
// make no sense together.
func TestNonsenseSizesRejected(t *testing.T) {
	usageError(t, `unknown technique "base" (use baseline, or `, "-tech", "base")
	usageError(t, `workload: unknown name "tpc-x"`, "-workload", "tpc-x")
	usageError(t, "-trace and -report record a single run; use -seeds 1", "-seeds", "2", "-report", "r.json")
	usageError(t, "-enumerate requires -litmus-shape", "-enumerate")
	usageError(t, `unknown trace format "xml"`, "-trace", os.DevNull, "-trace-format", "xml")
}

// The litmus mode refuses every flag it would not read, naming all of
// them, before a file is created: the shape fixes the machine, and
// -enumerate sweeps every combo on both kernel paths itself.
func TestLitmusRejectsFlagsItDoesNotRead(t *testing.T) {
	dir := t.TempDir()
	files := []string{filepath.Join(dir, "t.jsonl"), filepath.Join(dir, "r.json"), filepath.Join(dir, "rs.json")}
	usageError(t, "-cpus -report -seeds -trace: not read with -litmus-shape",
		"-litmus-shape", "SB", "-cpus", "8", "-seeds", "3", "-trace", files[0], "-report", files[1])
	usageError(t, "-runnerstats: not read with -litmus-shape", "-litmus-shape", "SB", "-runnerstats", files[2])
	usageError(t, "-check -verbose -workload: not read with -litmus-shape",
		"-litmus-shape", "MP", "-workload", "tpc-b", "-check", "-verbose")
	usageError(t, "-tech: not read with -litmus-shape -enumerate", "-litmus-shape", "SB", "-enumerate", "-tech", "mesti")
	usageError(t, "-no-fastforward: not read with -litmus-shape -enumerate",
		"-litmus-shape", "SB", "-enumerate", "-no-fastforward", "-interconnect", "directory")
	for _, f := range files {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s exists after a refused litmus run", f)
		}
	}
	// What a single litmus run does read.
	out, code := runMain(t, "-litmus-shape", "SB", "-tech", "emesti", "-interconnect", "splitbus", "-no-fastforward")
	if code != 0 || !strings.Contains(out, "under E-MESTI: observed (0,0)") {
		t.Errorf("single litmus run: exit status %d:\n%s", code, out)
	}
}

// A bad -trace-format is refused before the trace file is created: an
// existing file keeps its bytes.
func TestBadTraceFormatKeepsTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.jsonl")
	const before = "earlier trace\n"
	if err := os.WriteFile(path, []byte(before), 0o644); err != nil {
		t.Fatal(err)
	}
	usageError(t, `unknown trace format "bogus"`, "-trace", path, "-trace-format", "bogus")
	if got, err := os.ReadFile(path); err != nil || string(got) != before {
		t.Fatalf("trace file after a refused format: %q, %v; want %q", got, err, before)
	}
}

// Any flag added, dropped or reworded shows up as a diff against
// testdata/usage.txt (regenerate: go run ./cmd/tssim -h 2> cmd/tssim/testdata/usage.txt).
// The first line names the binary and is not compared.
func TestUsageGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/usage.txt")
	if err != nil {
		t.Fatal(err)
	}
	out, code := runMain(t, "-h")
	_, got, _ := strings.Cut(out, "\n")
	_, wantBody, _ := strings.Cut(string(want), "\n")
	if code != 0 || got != wantBody {
		t.Errorf("-h: exit status %d, usage differs from testdata/usage.txt:\n%s", code, out)
	}
}

// A failed run prints its post-mortem and one error line on stderr,
// still prints what it reached — under -verbose the counters and
// histograms it accumulated, by name — and exits 1.
func TestRenderFailedRun(t *testing.T) {
	tech := sim.Techniques{MESTI: true}
	r := sim.Result{
		Workload: "stall", Tech: tech, Cycles: 1234, Retired: 5,
		Counters: map[string]uint64{"miss/comm": 7, "bus/txn/read": 3},
		Hists:    map[string]stats.HistSnapshot{"occ/mshr": {}},
		Err: &sim.RunError{Workload: "stall", Tech: tech, Reason: "no instruction retired — deadlock",
			PostMortem: "=== tssim post-mortem ===\ncpu0 ...\n=== end post-mortem ===\n"},
	}
	for _, verbose := range []bool{false, true} {
		var out, errw bytes.Buffer
		if code := render(&out, &errw, r, verbose); code != 1 {
			t.Errorf("verbose=%v: exit status %d, want 1", verbose, code)
		}
		wantErr := "=== tssim post-mortem ===\ncpu0 ...\n=== end post-mortem ===\n" +
			"sim: workload \"stall\" under MESTI: no instruction retired — deadlock\n"
		if errw.String() != wantErr {
			t.Errorf("verbose=%v: stderr:\n%s\nwant:\n%s", verbose, errw.String(), wantErr)
		}
		if s := out.String(); !strings.Contains(s, "cycles    1234") || !strings.Contains(s, "finished  false") {
			t.Errorf("verbose=%v: summary missing what the run reached:\n%s", verbose, s)
		}
		dump := "  bus/txn/read                         3\n  miss/comm                            7\n  occ/mshr                 n=0\n"
		if got := strings.HasSuffix(out.String(), dump); got != verbose {
			t.Errorf("verbose=%v: counter dump present = %v:\n%s", verbose, got, out.String())
		}
	}
}
