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
		cmd := exec.Command(os.Args[0], "-workload", "tpc-b", "-cpus", n)
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
