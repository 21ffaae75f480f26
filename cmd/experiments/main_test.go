package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"

	"tssim/internal/experiments"
)

// TestMain lets the test binary stand in for the command: re-executed
// with TSSIM_TEST_MAIN set, it runs main with the given arguments on a
// flag set free of the testing package's own flags.
func TestMain(m *testing.M) {
	if os.Getenv("TSSIM_TEST_MAIN") != "" {
		flag.CommandLine = flag.NewFlagSet(os.Args[0], flag.ExitOnError)
		if os.Getenv("TSSIM_TEST_FAILED_CELL") != "" {
			run = func(experiments.Params, ...func(experiments.Params) experiments.Artifact) (string, []experiments.Key) {
				return "== Table ==\nFAILED tpc-b under E-MESTI: deadlock\n\n", []experiments.Key{{Workload: "tpc-b"}}
			}
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command and returns what it printed and its exit
// status.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	return runMainEnv(t, nil, args...)
}

// runMainEnv is runMain with env added to the command's environment.
func runMainEnv(t *testing.T, env []string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "TSSIM_TEST_MAIN=1"), env...)
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// The rules for the flags shared with cmd/tssim live, and are tested
// row by row, in internal/cli; this row proves main is wired to them:
// exit status 2, one line, no stack trace.
func TestCPUsOutOfRangeRejected(t *testing.T) {
	out, code := runMain(t, "-table2", "-cpus", "65")
	if code != 2 || out != "-cpus 65: must be between 1 and 64\n" {
		t.Errorf("-table2 -cpus 65: want exit status 2 and one line naming the flag, got status %d:\n%s", code, out)
	}
}

// ... and that they are checked before anything runs: `-table2 16
// -scale 0` is refused for its stray argument, not run at the defaults.
func TestNonsenseSizesRejected(t *testing.T) {
	out, code := runMain(t, "-table2", "16", "-scale", "0")
	if code != 2 || out != "unexpected argument \"16\" (flags after it were not read)\n" {
		t.Errorf("-table2 16 -scale 0: want exit status 2 and one line, got status %d:\n%s", code, out)
	}
}

// The single-run spellings this command used to take are usage errors
// now, not silently ignored: `tssim -workload W -tech T -scale 2
// -verbose -report f` is `-dump W -tech T -report f`, and -runnerstats
// records what -timing printed.
func TestRetiredFlagsRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-dump", "tpc-b"},
		{"-timing", "-table2"},
		{"-tech", "mesti", "-table2"},
		{"-report", os.DevNull, "-table2"},
	} {
		out, code := runMain(t, args...)
		if want := "flag provided but not defined: " + args[0] + "\n"; code != 2 || !strings.HasPrefix(out, want) {
			t.Errorf("%v: want exit status 2 and %q, got status %d:\n%s", args, want, code, out)
		}
	}
}

// A sweep with a failed cell prints every table and its footer, then
// exits 1: a checked sweep whose checker found a violation fails the
// command, not just its ERR cell.
func TestFailedCellExitsOne(t *testing.T) {
	out, code := runMainEnv(t, []string{"TSSIM_TEST_FAILED_CELL=1"}, "-fig7")
	want := "== Table ==\nFAILED tpc-b under E-MESTI: deadlock\n\n1 cells failed (FAILED above)\n"
	if code != 1 || out != want {
		t.Errorf("-fig7 with a failed cell: want exit status 1 and\n%s\ngot status %d:\n%s", want, code, out)
	}
}

// Any flag added, dropped or reworded shows up as a diff against
// testdata/usage.txt (regenerate: go run ./cmd/experiments -h 2> cmd/experiments/testdata/usage.txt).
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
