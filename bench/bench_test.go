package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tssim/internal/bus"
	"tssim/internal/sim"
	"tssim/internal/stats"
	"tssim/internal/workload"
)

// The replica loop is only worth tracing if it is the real loop: it
// must end bit-identical to sim.RunOneErr on every fabric.
func TestReplicaMatchesRunOneErr(t *testing.T) {
	cases := []struct {
		gen    string
		fabric string
		cpus   int
		heavy  bool
	}{
		{"raytrace", bus.KindBus, 4, false},
		{"raytrace", bus.KindSplitBus, 4, false},
		{"raytrace", bus.KindDirectory, 4, false},
		{"specjbb", bus.KindDirectory, 8, true},
	}
	for _, tc := range cases {
		if tc.heavy && testing.Short() {
			continue
		}
		cells, err := oneCell(tc.gen, allTech, tc.fabric, tc.cpus)(0)
		if err != nil {
			t.Fatal(err)
		}
		c := cells[0]
		res := sim.RunOneErr(c.job.Cfg, c.job.W)
		if res.Err != nil || !res.Finished {
			t.Fatalf("%s: reference run failed: %v", c.key, res.Err)
		}
		want := fingerprintOf(res.Cycles, res.PerCPU, res.Counters)
		got, tr, err := replica(c)
		if err != nil {
			t.Fatalf("%s: %v", c.key, err)
		}
		if !got.equal(want) {
			t.Errorf("%s: replica %+v, RunOneErr %+v", c.key, got, want)
		}
		if skipped := res.Cycles - uint64(tr.ticked); skipped != res.SkippedCycles {
			t.Errorf("%s: replica skipped %d cycles, RunOneErr %d", c.key, skipped, res.SkippedCycles)
		}
	}
}

func loadGolden(t *testing.T) map[string]fingerprint {
	t.Helper()
	var g map[string]fingerprint
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		t.Fatal(err)
	}
	return g
}

// The benchmark's golden and the repo's Fig 7 fixed point must be the
// same simulation: speedups computed from golden.json alone render to
// exactly fig7_atomic_golden.txt. No simulation runs here.
func TestGoldenRendersFig7(t *testing.T) {
	golden := loadGolden(t)
	combos := sim.AllCombos()
	header := []string{"Program"}
	for _, c := range combos[1:] {
		header = append(header, c.String())
	}
	table := stats.NewTable(header...)
	for _, gen := range workload.Names() {
		cycles := func(tech sim.Techniques) float64 {
			fp, ok := golden[gen+"/"+tech.String()+"/bus/4"]
			if !ok {
				t.Fatalf("golden.json has no %s under %s", gen, tech)
			}
			return float64(fp.Cycles)
		}
		row := []string{gen}
		for _, tech := range combos[1:] {
			row = append(row, stats.Pct(cycles(combos[0])/cycles(tech)-1))
		}
		table.Row(row...)
	}
	want, err := os.ReadFile(filepath.Join("..", "internal", "experiments", "testdata", "fig7_atomic_golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := "== Figure 7: performance (speedup over baseline) ==\n" + table.String()
	if strings.TrimRight(got, "\n") != strings.TrimRight(string(want), "\n") {
		t.Errorf("golden.json renders to\n%s\nwant\n%s", got, want)
	}
}

func TestGoldenCoversEveryCell(t *testing.T) {
	golden := loadGolden(t)
	keys := map[string]bool{}
	for _, sp := range specs {
		cells, err := sp.cells(0)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			keys[c.key] = true
			if _, ok := golden[c.key]; !ok {
				t.Errorf("%s: %s is not in golden.json", sp.name, c.key)
			}
		}
	}
	if len(golden) != len(keys) || len(keys) != 64 {
		t.Errorf("golden.json has %d cells, the workloads %d, want 64", len(golden), len(keys))
	}
}

func TestSweepIsFig7Order(t *testing.T) {
	cells, err := fig7Cells(5)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for _, gen := range workload.Names() {
		for _, tech := range sim.AllCombos() {
			if i >= len(cells) {
				t.Fatalf("sweep has %d cells, want 63", len(cells))
			}
			c := cells[i]
			i++
			if c.gen != gen || c.job.W.Name != gen || c.job.Cfg.Tech != tech || c.key != gen+"/"+tech.String()+"/bus/4" {
				t.Errorf("cell %d is %s (%s under %s), want %s under %s", i, c.key, c.job.W.Name, c.job.Cfg.Tech, gen, tech)
			}
			want := sim.SampleJobs(sim.Config{Seed: 5}, c.job.W, 1)[0].Cfg
			if c.job.Cfg.Seed != want.Seed || c.job.Cfg.Bus.JitterMax != want.Bus.JitterMax || c.job.Cfg.CPUs != 4 {
				t.Errorf("%s is not built by the Fig 7 recipe: %+v", c.key, c.job.Cfg)
			}
		}
	}
	if i != len(cells) {
		t.Errorf("sweep has %d cells, want %d", len(cells), i)
	}
}

func TestEstimator(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := minOf(xs); got != 1 {
		t.Errorf("minOf = %v", got)
	}
	for q, want := range map[float64]float64{0: 1, 0.5: 3, 1: 5, 0.1: 1.4, 0.9: 4.6} {
		if got := quantile(xs, q); got < want-1e-12 || got > want+1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if quantile([]float64{7}, 0.9) != 7 {
		t.Error("quantile of one sample")
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

func TestFingerprintAndChecker(t *testing.T) {
	counters := map[string]uint64{"a": 1, "b": 2}
	fp := fingerprintOf(10, []uint64{3, 4}, counters)
	if fp.Retired != 7 || fp.Cycles != 10 {
		t.Errorf("fingerprint %+v", fp)
	}
	if !fp.equal(fingerprintOf(10, []uint64{3, 4}, map[string]uint64{"b": 2, "a": 1})) {
		t.Error("fingerprint depends on map order")
	}
	for name, other := range map[string]fingerprint{
		"cycles":   fingerprintOf(11, []uint64{3, 4}, counters),
		"per cpu":  fingerprintOf(10, []uint64{4, 3}, counters),
		"counter":  fingerprintOf(10, []uint64{3, 4}, map[string]uint64{"a": 1, "b": 3}),
		"new name": fingerprintOf(10, []uint64{3, 4}, map[string]uint64{"a": 1, "b": 2, "c": 0}),
	} {
		if fp.equal(other) {
			t.Errorf("fingerprint blind to a change of %s", name)
		}
	}

	pinned := &checker{want: map[string]fingerprint{"k": fp}, pinned: true}
	if err := pinned.checkFingerprint("k", fp); err != nil {
		t.Error(err)
	}
	if pinned.checkFingerprint("k", fingerprintOf(11, nil, nil)) == nil {
		t.Error("pinned checker accepted a different fingerprint")
	}
	if pinned.checkFingerprint("other", fp) == nil {
		t.Error("pinned checker accepted a cell with no golden")
	}
	free, err := newChecker(1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := free.checkFingerprint("k", fp); err != nil {
		t.Errorf("first execution on a held-back seed: %v", err)
	}
	if free.checkFingerprint("k", fingerprintOf(11, nil, nil)) == nil {
		t.Error("second execution differed from the first and passed")
	}
	c := cell{key: "k"}
	if free.check(c, sim.Result{Finished: false}) == nil {
		t.Error("unfinished run passed")
	}
	if free.check(c, sim.Result{Finished: true, Err: &sim.RunError{Reason: "x"}}) == nil {
		t.Error("failed run passed")
	}
}

func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		a, b, bound, p10A, p10B float64
		want                    string
	}{
		{1, 1.05, 0.10, 1.01, 1.02, unchanged},
		{1, 0.50, 0.10, 1.01, 1.02, unchanged},
		{1, 1.11, 0.10, 1.01, 1.02, regressed},
		{1, 1.05, 0.10, 1.12, 1.02, unresolved},
		{1, 1.05, 0.10, 1.01, 1.12, unresolved},
		{1, 1.20, 0.10, 1.30, 1.30, regressed},
	} {
		if got := verdict(tc.a, tc.b, tc.bound, tc.p10A, tc.p10B); got != tc.want {
			t.Errorf("verdict(%+v) = %s", tc, got)
		}
	}
}

func docWith(wall, failedShare, p10 float64) document {
	e := metrics{}
	for _, d := range endToEnd {
		e.put(d.Name, 1)
	}
	e.put("wall_s", wall)
	e.put("failed_share", failedShare)
	p := metrics{}
	p.put("harness.rep_p10_ratio", p10)
	return document{Schema: schema, Comparable: true, Workloads: []workloadDoc{{Name: "w", EndToEnd: e, PerLayer: p}}}
}

func TestCompare(t *testing.T) {
	var out bytes.Buffer
	if compare(docWith(1, 0, 1.01), docWith(1.05, 0, 1.01), &out) {
		t.Errorf("within the bound, yet:\n%s", out.String())
	}
	if !compare(docWith(1, 0, 1.01), docWith(1.3, 0, 1.01), &out) {
		t.Error("wall_s past its bound went unreported")
	}
	if !compare(docWith(1, 0, 1.01), docWith(1, 0.01, 1.01), &out) {
		t.Error("a rise of failed_share went unreported")
	}
	out.Reset()
	if compare(docWith(1, 0, 1.01), docWith(1.05, 0, 1.5), &out) || strings.Count(out.String(), unresolved) != 4 {
		t.Errorf("a noisy side must read unresolved on the four timings and not on alloc_mb:\n%s", out.String())
	}

	dir := t.TempDir()
	quick := docWith(1, 0, 1)
	quick.Comparable = false
	js, _ := json.Marshal(quick)
	path := filepath.Join(dir, "quick.json")
	if err := os.WriteFile(path, js, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(path, path, &out); err == nil {
		t.Error("a -quick document was compared")
	}
}

// A -quick run end to end: every workload reports every end-to-end
// metric, labelled as not comparable. The sweep is the heavy part.
func TestQuickRun(t *testing.T) {
	run := specs
	if testing.Short() {
		run = specs[:3]
	}
	for _, sp := range run {
		out := filepath.Join(t.TempDir(), "out.json")
		if err := fullRun(sp.name, 0, true, out); err != nil {
			t.Fatal(err)
		}
		js, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var doc document
		if err := json.Unmarshal(js, &doc); err != nil {
			t.Fatal(err)
		}
		if doc.Comparable || len(doc.Workloads) != 1 || doc.Workloads[0].Name != sp.name {
			t.Fatalf("%s: unexpected document %s", sp.name, js)
		}
		w := doc.Workloads[0]
		for _, d := range append([]metricDef{{Name: "failed_share", Unit: "ratio"}}, endToEnd...) {
			m, ok := w.EndToEnd[d.Name]
			if !ok || m.Unit != d.Unit || (m.Value <= 0) != (d.Name == "failed_share") {
				t.Errorf("%s: %s = %+v (present %v)", sp.name, d.Name, m, ok)
			}
		}
		if w.Failed != 0 || w.Attempted != sp.quick*len(mustCells(t, sp)) {
			t.Errorf("%s: %d attempted, %d failed", sp.name, w.Attempted, w.Failed)
		}
	}
}

func mustCells(t *testing.T, sp spec) []cell {
	t.Helper()
	cells, err := sp.cells(0)
	if err != nil {
		t.Fatal(err)
	}
	return cells
}

// BENCHMARK.json is the contract the driver reads; the program's own
// tables are what it prints. They must say the same.
func TestContractMatchesProgram(t *testing.T) {
	js, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var contract struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(js))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&contract); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(contract.Command, []string{"bash", "bench/driver.sh"}) || !reflect.DeepEqual(contract.Paths, []string{"bench"}) {
		t.Errorf("command %v, paths %v", contract.Command, contract.Paths)
	}
	if len(contract.Workloads) != len(specs) {
		t.Fatalf("%d workloads, want %d", len(contract.Workloads), len(specs))
	}
	for i, sp := range specs {
		if w := contract.Workloads[i]; w.Name != sp.name || w.Why != sp.why || len(w.Why) > 200 {
			t.Errorf("workload %d: %+v, want %s: %s", i, w, sp.name, sp.why)
		}
	}
	if !reflect.DeepEqual(contract.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n%+v\nwant\n%+v", contract.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(contract.PerLayer, perLayer) || len(perLayer) > 128 {
		t.Errorf("per_layer (%d):\n%+v\nwant\n%+v", len(perLayer), contract.PerLayer, perLayer)
	}
}

// The traced pass must produce every per-layer metric the contract
// lists, on a held-back seed too, where the replica is checked against
// the untraced execution instead of the golden.
func TestTracedPassGivesEveryPerLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced pass of busy_tpcb")
	}
	sp, _ := specByName("busy_tpcb")
	ck, err := newChecker(1, false)
	if err != nil {
		t.Fatal(err)
	}
	r, err := measure(sp, 1, ck, budget{reps: 3, setupReps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := layers(sp, 1, ck, r); err != nil {
		t.Fatal(err)
	}
	if err := heldBack(sp, 2, r); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Errorf("%d of %d executions failed: %v", r.failed, r.attempted, r.firstErr)
	}
	m, err := r.m.only(perLayer)
	if err != nil {
		t.Fatal(err)
	}
	if ticked, cycles := m["sim.ticked_cycles"].Value, m["sim.cycles"].Value; ticked <= 0 || ticked > cycles {
		t.Errorf("ticked %v of %v cycles", ticked, cycles)
	}
}
