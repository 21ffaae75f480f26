package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the command: re-executed
// with TSSIM_TEST_MAIN set, it runs main with the given arguments.
func TestMain(m *testing.M) {
	if os.Getenv("TSSIM_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// A CPU count no generator layout or sharer vector supports is a usage
// error: exit status 2, one line, no stack trace.
func TestCPUsOutOfRangeRejected(t *testing.T) {
	for _, n := range []string{"0", "65", "-3"} {
		cmd := exec.Command(os.Args[0], "-table2", "-cpus", n)
		cmd.Env = append(os.Environ(), "TSSIM_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("-cpus %s: want exit status 2, got %v\n%s", n, err, out)
		}
		if s := string(out); !strings.Contains(s, "-cpus "+n) || strings.Contains(s, "goroutine") || strings.Count(s, "\n") != 1 {
			t.Fatalf("-cpus %s: want one line naming the flag, got:\n%s", n, s)
		}
	}
}

// Sizes the library would quietly run as scale 1, one seed are usage
// errors too, as is a technique name the parser does not know — the
// message names "baseline", the one spelling of no technique it takes —
// and a stray positional argument, which ends flag parsing: `-table2 16
// -scale 0` would otherwise run although `-scale 0` alone is rejected.
func TestNonsenseSizesRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table2", "-scale", "0", "-seeds", "0"}, "-scale 0:"},
		{[]string{"-table2", "-scale", "-2"}, "-scale -2:"},
		{[]string{"-fig7", "-seeds", "-1"}, "-seeds -1:"},
		{[]string{"-table2", "-j", "-1"}, "-j -1:"},
		{[]string{"-dump", "tpc-b", "-tech", "base"}, `unknown technique "base" (use baseline, or `},
		{[]string{"-table2", "16", "-scale", "0"}, `unexpected argument "16" (flags after it were not read)`},
	} {
		cmd := exec.Command(os.Args[0], tc.args...)
		cmd.Env = append(os.Environ(), "TSSIM_TEST_MAIN=1")
		out, err := cmd.CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Fatalf("%v: want exit status 2, got %v\n%s", tc.args, err, out)
		}
		if s := string(out); !strings.Contains(s, tc.want) || strings.Contains(s, "goroutine") || strings.Count(s, "\n") != 1 {
			t.Fatalf("%v: want one line with %q, got:\n%s", tc.args, tc.want, s)
		}
	}
}
