package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tssim/internal/bus"
)

// defaultPairs are the two -scale / -seeds defaults the commands
// register with: cmd/tssim and cmd/experiments.
var defaultPairs = [][2]int{{1, 1}, {2, 3}}

// start registers the shared flags with one default pair, parses args
// and starts, the way both mains do.
func start(t *testing.T, pair [2]int, logw io.Writer, args ...string) (*Flags, func(), error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, pair[0], pair[1])
	if err := fs.Parse(args); err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	stop, err := f.Start(logw)
	return f, stop, err
}

// Every rule, once: a CPU count no generator layout or sharer vector
// supports, sizes the library would quietly run as scale 1 / one seed,
// a fabric or heartbeat format that does not exist, and a stray
// positional argument, which ends flag parsing — `-table2 16 -scale 0`
// would otherwise run although `-scale 0` alone is rejected, and a
// forgotten -tech would run Baseline on the default machine. Each is one
// line naming the flag and its value, whichever defaults were registered.
func TestRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cpus", "0"}, "-cpus 0: must be between 1 and 64"},
		{[]string{"-cpus", "65"}, "-cpus 65: must be between 1 and 64"},
		{[]string{"-cpus", "-3"}, "-cpus -3: must be between 1 and 64"},
		{[]string{"-scale", "0"}, "-scale 0: must be at least 1"},
		{[]string{"-scale", "-1"}, "-scale -1: must be at least 1"},
		{[]string{"-scale", "-2"}, "-scale -2: must be at least 1"},
		{[]string{"-scale", "0", "-seeds", "0"}, "-scale 0: must be at least 1"},
		{[]string{"-seeds", "0"}, "-seeds 0: must be at least 1"},
		{[]string{"-seeds", "-1"}, "-seeds -1: must be at least 1"},
		{[]string{"-seeds", "-3"}, "-seeds -3: must be at least 1"},
		{[]string{"-j", "-1"}, "-j -1: must be 0 (GOMAXPROCS) or more"},
		{[]string{"-seeds", "2", "-j", "-1"}, "-j -1: must be 0 (GOMAXPROCS) or more"},
		{[]string{"-interconnect", "mesh"}, `unknown -interconnect "mesh" (use bus|splitbus|directory)`},
		{[]string{"mesti", "-cpus", "16", "-interconnect", "directory"}, `unexpected argument "mesti" (flags after it were not read)`},
		{[]string{"-check", "16", "-scale", "0"}, `unexpected argument "16" (flags after it were not read)`},
	} {
		for _, pair := range defaultPairs {
			var logw bytes.Buffer
			_, _, err := start(t, pair, &logw, tc.args...)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%v (defaults %v): error %v, want %q", tc.args, pair, err, tc.want)
			}
			if logw.Len() != 0 {
				t.Errorf("%v: a rejected command line wrote %q", tc.args, logw.String())
			}
		}
	}
}

// What is accepted, and what it means: the registered defaults come
// back; with no telemetry flag there is no collector, nothing is
// written and stop is a no-op; -check is both checkers; every fabric
// bus.Kinds lists is taken and reaches the machine.
func TestAccepted(t *testing.T) {
	for _, pair := range defaultPairs {
		var logw bytes.Buffer
		f, stop, err := start(t, pair, &logw)
		if err != nil {
			t.Fatal(err)
		}
		stop()
		if f.Scale != pair[0] || f.Seeds != pair[1] || f.Jobs != 0 {
			t.Errorf("defaults %v parsed as scale %d seeds %d j %d", pair, f.Scale, f.Seeds, f.Jobs)
		}
		if f.Telemetry != nil || logw.Len() != 0 {
			t.Errorf("no telemetry flag, yet collector %v and output %q", f.Telemetry, logw.String())
		}
		if cfg := f.Config(); cfg.CPUs != 4 || cfg.Interconnect != "" || cfg.Check || cfg.CheckCommits || cfg.NoFastForward {
			t.Errorf("default machine: %+v", cfg)
		}

		f, _, err = start(t, pair, io.Discard, "-check", "-no-fastforward", "-cpus", "16")
		if err != nil {
			t.Fatal(err)
		}
		if cfg := f.Config(); !cfg.Check || !cfg.CheckCommits || !cfg.NoFastForward || cfg.CPUs != 16 {
			t.Errorf("-check -no-fastforward -cpus 16 built %+v: want both checkers, the audited loop, 16 CPUs", cfg)
		}
		for _, kind := range bus.Kinds() {
			f, _, err := start(t, pair, io.Discard, "-interconnect", kind)
			if err != nil {
				t.Errorf("-interconnect %s: %v", kind, err)
			} else if got := f.Config().Interconnect; got != kind {
				t.Errorf("-interconnect %s built a machine on %q", kind, got)
			}
		}
	}
}

// The flags that leave files behind: stop writes the runner-stats
// report and the profile, and says so on logw.
func TestStopWritesFiles(t *testing.T) {
	dir := t.TempDir()
	stats, heap := filepath.Join(dir, "rs.json"), filepath.Join(dir, "mem.pprof")
	var logw bytes.Buffer
	f, stop, err := start(t, defaultPairs[0], &logw, "-runnerstats", stats, "-memprofile", heap)
	if err != nil {
		t.Fatal(err)
	}
	if f.Telemetry == nil {
		t.Fatal("-runnerstats built no collector")
	}
	stop()
	for _, path := range []string{stats, heap} {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("%s not written: %v", path, err)
		}
	}
	if !strings.Contains(logw.String(), "runnerstats -> "+stats) {
		t.Errorf("stop did not announce the report: %q", logw.String())
	}
}
