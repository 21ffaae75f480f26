// Package fixed checks the repository's fixed points: the outputs that
// must not move unless a change means to move them.
//
// What: a fixed point is a text file in testdata/fixed/ at the
// repository root. Its first line is the command, `$ go run ./cmd/X
// args…`, run from the root; the lines after it are exactly that
// command's stdout. This is the format of EXPERIMENTS.md's recorded
// blocks. scripts/check_recorded.sh reruns every one and writes each
// output back in place; each command's tests rerun the points recorded
// from it (Check).
//
// Contract: arguments are separated by spaces and quote nothing, and a
// recorded command exits 0.
package fixed

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dir is where the fixed points live, relative to the repository root.
const dir = "testdata/fixed"

// A point is one recorded output.
type point struct {
	path string   // the file, relative to the repository root
	args []string // the command's arguments after its package
	want string   // the recorded stdout
}

// of returns, in file-name order, the points in root's dir whose
// command is `go run pkg …` (pkg as written there, e.g. "./cmd/tssim").
func of(root, pkg string) ([]point, error) {
	files, err := filepath.Glob(filepath.Join(root, dir, "*.txt"))
	if err != nil {
		return nil, err
	}
	var points []point
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		rel := dir + "/" + filepath.Base(f)
		cmd, want, _ := strings.Cut(string(b), "\n")
		words := strings.Fields(cmd)
		if len(words) < 4 || words[0] != "$" || words[1] != "go" || words[2] != "run" {
			return nil, fmt.Errorf("%s: first line %q is not `$ go run <package> args…`", rel, cmd)
		}
		if words[3] == pkg {
			points = append(points, point{path: rel, args: words[4:], want: want})
		}
	}
	return points, nil
}

// Check reruns, one subtest each, the points of pkg found from root
// through run, which returns the command's stdout and exit status. A
// point that skip names is skipped with the reason skip gives.
func Check(t *testing.T, root, pkg string, skip map[string]string, run func(args ...string) (string, int)) {
	t.Helper()
	points, err := of(root, pkg)
	if err != nil {
		t.Fatal(err)
	}
	skipped := 0
	for _, p := range points {
		t.Run(filepath.Base(p.path), func(t *testing.T) {
			if why, ok := skip[p.path]; ok {
				skipped++
				t.Skipf("%s: %s", p.path, why)
			}
			got, code := run(p.args...)
			if code != 0 || got != p.want {
				t.Errorf("%s: exit status %d, stdout %s; scripts/check_recorded.sh rerecords it",
					p.path, code, firstDiff(p.want, got))
			}
		})
	}
	if skipped != len(skip) {
		t.Errorf("skipped %d of the %d points named to skip: %v", skipped, len(skip), skip)
	}
}

// firstDiff names the first line where got departs from want.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := range w {
		if i >= len(g) {
			return fmt.Sprintf("ends before line %d, %q", i+2, w[i])
		}
		if w[i] != g[i] {
			return fmt.Sprintf("line %d reads %q, recorded %q", i+2, g[i], w[i])
		}
	}
	if len(g) > len(w) {
		return fmt.Sprintf("goes on past the recording, %q", g[len(w)])
	}
	return "equal"
}
