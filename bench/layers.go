package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"tssim/internal/bus"
	"tssim/internal/cache"
	"tssim/internal/mem"
	"tssim/internal/predictor"
	"tssim/internal/sim"
	"tssim/internal/stale"
	"tssim/internal/stats"
	"tssim/internal/telemetry"
)

// layers runs the traced pass over one workload and adds the per-layer
// metrics to ref.m: the traced replica loop, the simulated counters,
// the leaf probes, the differential costs and the runner. ref is the
// untraced pass it is compared against.
func layers(sp spec, seed int64, ck *checker, ref *measured) error {
	m := ref.m
	if err := traceCells(sp, seed, ck, ref); err != nil {
		return err
	}
	simulatedCounters(m, ref.last)
	probes(m, ref.cells[0].job.Cfg)
	differential(sp, ck, ref)
	runnerPass(ck, ref)
	return nil
}

// traceCells runs every cell sp.traced times through the replica loop
// and reports the run whose loop time was smallest. A replica that
// does not end exactly as the untraced execution did is an error, not
// a failed execution: its spans would describe another run.
func traceCells(sp spec, seed int64, ck *checker, ref *measured) error {
	// Generating the programs is outside the loop and a few
	// milliseconds: it takes its own minimum over the runs.
	var best trace
	var build int64
	for i := 0; i < sp.traced; i++ {
		var run trace
		t0 := time.Now()
		cells, err := sp.cells(seed)
		if err != nil {
			return err
		}
		if b := int64(time.Since(t0)); i == 0 || b < build {
			build = b
		}
		for _, c := range cells {
			fp, tr, err := replica(c)
			if err == nil {
				err = ck.checkFingerprint(c.key, fp)
			}
			if err != nil {
				return fmt.Errorf("replica diverged: %w", err)
			}
			run.add(&tr)
		}
		if i == 0 || run.loop < best.loop {
			best = run
		}
	}
	best.ns[spanBuild], best.calls[spanBuild] = build, 1

	m := ref.m
	wall := float64(best.wall())
	spanned := int64(0)
	for i, name := range spanNames {
		m.put(name+".share", float64(best.ns[i])/wall)
		m.put(name+".ns", ratio(float64(best.ns[i]), float64(best.calls[i])))
		if i >= spanNextEvent && i <= spanCPUTick {
			spanned += best.ns[i]
		}
	}
	m.put("sim.loop_other.share", float64(best.loop-spanned)/wall)
	m.put("sim.ticked_cycles", float64(best.ticked))
	m.put("sim.next_event_scans", float64(best.scans))
	m.put("sim.skips", float64(best.skips))
	// Programs are generated in set-up, not in an untraced execution.
	untraced := m["wall_s"].Value * 1e9
	m.put("harness.trace_overhead", float64(best.wall()-best.ns[spanBuild])/untraced-1)
	return nil
}

// simulatedCounters reports the deterministic simulated statistics of
// the workload's cells, summed over cells.
func simulatedCounters(m metrics, results []sim.Result) {
	var cycles, skipped, retired float64
	sum := map[string]float64{}
	type hist struct{ n, sum float64 }
	hists := map[string]hist{}
	for _, r := range results {
		cycles += float64(r.Cycles)
		skipped += float64(r.SkippedCycles)
		retired += float64(r.Retired)
		for k, v := range r.Counters {
			sum[k] += float64(v)
		}
		for k, h := range r.Hists {
			hists[k] = hist{hists[k].n + float64(h.N), hists[k].sum + float64(h.Sum)}
		}
	}
	mean := func(name string) float64 { return ratio(hists[name].sum, hists[name].n) }
	copyOf := map[string]string{
		"cpu.loads": "cpu/loads", "cpu.stores": "cpu/stores", "cpu.squash": "cpu/squash",
		"cpu.branch_mispredict": "cpu/branch_mispredict", "cpu.load_replay": "cpu/load_replay",
		"cpu.lvp_squash": "cpu/lvp_squash", "cpu.sle_attempt": "sle/attempt",
		"core.l1_hit": "l1/hit", "core.l1_miss": "l1/miss", "core.l2_miss": "l2/miss",
		"core.miss_comm": "miss/comm", "core.miss_mem": "miss/mem",
		"core.ts_detect":          "mesti/ts_detect",
		"core.validate_requested": "mesti/validate_requested", "core.validate_suppressed": "mesti/validate_suppressed",
		"bus.validates": "bus/txn/validate", "bus.c2c": "bus/data/c2c", "bus.dir_probes": "bus/dir/probes",
	}
	for name, counter := range copyOf {
		m.put(name, sum[counter])
	}
	txns := 0.0
	for k, v := range sum {
		if strings.HasPrefix(k, "bus/txn/") {
			txns += v
		}
	}
	m.put("sim.cycles", cycles)
	m.put("sim.skip_fraction", ratio(skipped, cycles))
	m.put("sim.ipc", ratio(retired, cycles))
	m.put("cpu.retired", retired)
	m.put("cpu.sle_success_ratio", ratio(sum["sle/success"], sum["sle/attempt"]))
	// A validate is useful when a T-state holder re-installs the line
	// from it: the ratio the paper's predictor exists to raise.
	m.put("core.validate_useful_ratio", ratio(sum["mesti/revalidate"], sum["bus/txn/validate"]))
	m.put("core.lvp_verify_ok_ratio", ratio(sum["lvp/verify_ok"], sum["lvp/verify_ok"]+sum["lvp/verify_fail"]))
	m.put("core.mshr_occ_mean", mean("occ/mshr"))
	m.put("core.miss_service_mean", mean("lat/miss_service"))
	m.put("bus.txns", txns)
	m.put("bus.txns_per_kcycle", ratio(1000*txns, cycles))
	m.put("bus.wait_mean", mean("lat/bus_wait"))
}

// perOp returns the host nanoseconds one call of op takes: the minimum
// over batches of n calls each.
func perOp(n int, op func(i int)) float64 {
	const batches = 24
	best := 0.0
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i)
		}
		if dt := float64(time.Since(t0)) / float64(n); b == 0 || dt < best {
			best = dt
		}
	}
	return best
}

// stubPort is a bus.Port that accepts every grant, holds no lines and
// counts its completions.
type stubPort struct{ done int }

func (p *stubPort) GrantTxn(*bus.Txn) bool           { return true }
func (p *stubPort) SnoopTxn(*bus.Txn) bus.SnoopReply { return bus.SnoopReply{} }
func (p *stubPort) CompleteTxn(*bus.Txn)             { p.done++ }

var probeSink uint64

// probes times single operations of the leaf packages, configured to
// the workload's machine: its cache geometry, MSHR count, fabric kind
// and port count.
func probes(m metrics, cfg sim.Config) {
	const n = 1 << 15
	line := func(i int) uint64 { return uint64(i) * mem.LineSize }

	l1 := cache.New(cfg.Node.L1)
	resident := cfg.Node.L1.SizeBytes / mem.LineSize
	for i := 0; i < resident; i++ {
		l1.Allocate(line(i))
	}
	m.put("cache.lookup_hit_ns", perOp(n, func(i int) {
		if l1.Lookup(line(i%resident)) != nil {
			probeSink++
		}
	}))
	m.put("cache.lookup_miss_ns", perOp(n, func(i int) {
		if l1.Lookup(line(resident+i%resident)) != nil {
			probeSink++
		}
	}))
	l2 := cache.New(cfg.Node.L2)
	l2Lines := cfg.Node.L2.SizeBytes / mem.LineSize
	m.put("cache.allocate_ns", perOp(n, func(i int) {
		// Twice the capacity, so that every allocation evicts.
		l2.Allocate(line(i % (2 * l2Lines)))
	}))
	mshrs := cache.NewMSHRFile(cfg.Node.MSHRs)
	for i := 0; i < cfg.Node.MSHRs-1; i++ {
		mshrs.Alloc(line(n+i), false) // the file is searched nearly full, as under load
	}
	m.put("cache.mshr_cycle_ns", perOp(n, func(i int) {
		e := mshrs.Alloc(line(i), false)
		if mshrs.Lookup(line(i)) == e {
			mshrs.Free(e)
		}
	}))
	memory := mem.New()
	m.put("mem.line_rw_ns", perOp(n, func(i int) {
		a := line(i % 1024)
		l := memory.ReadLine(a)
		l[0]++
		memory.WriteLine(a, l)
	}))
	counter := stats.NewCounters().Counter("probe")
	m.put("stats.counter_inc_ns", perOp(n, func(int) { counter.Inc() }))
	probeSink += counter.Get()
	vp := predictor.NewValidatePredictor(predictor.DefaultValidateParams())
	m.put("predictor.validate_step_ns", perOp(n, func(i int) {
		// One turn of the Figure 4 machine; without the visible store
		// in the middle the response would be ignored.
		a := line(i % 1024)
		vp.OnTSDetect(a)
		vp.OnIntermediateStoreVisible(a)
		vp.OnUsefulResponse(a, i&1 == 0)
	}))
	det := stale.NewPerfect()
	var data mem.Line
	m.put("stale.save_candidate_ns", perOp(n, func(i int) {
		a := line(i % 1024)
		det.SaveStale(a, data)
		if _, ok := det.Candidate(a); ok {
			det.Drop(a)
		}
	}))
	m.put("bus.grant_ns", grantProbe(cfg))
}

// grantProbe times one Read from request to CompleteTxn through the
// workload's fabric with stub ports, advancing the fabric from event
// to event as the fast-forward loop does.
func grantProbe(cfg sim.Config) float64 {
	ic, err := bus.NewInterconnect(cfg.Interconnect, cfg.Bus, mem.New(), stats.NewCounters(),
		rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		panic(err) // the cell's own fabric kind: it has already run
	}
	ports := make([]*stubPort, cfg.CPUs)
	for i := range ports {
		ports[i] = &stubPort{}
		ic.Attach(ports[i])
	}
	now := uint64(0)
	return perOp(1<<10, func(i int) {
		p := ports[i%len(ports)]
		t := ic.NewTxn()
		t.Type, t.Addr, t.Src = bus.TxnRead, uint64(i%256)*mem.LineSize, i%len(ports)
		ic.Request(t)
		for want := p.done + 1; p.done < want; {
			ic.Tick(now)
			if ne := ic.NextEvent(now); ne > now && ne != ^uint64(0) {
				now = ne
			} else {
				now++
			}
		}
	})
}

// differential prices the two paths that are off in every timed cell:
// the every-cycle loop (NoFastForward) and the coherence and commit
// checkers. It runs the first cell of each generator, which is the
// whole workload except on the sweep, and compares with the untraced
// minimum of the same cells.
func differential(sp spec, ck *checker, ref *measured) {
	var plain, noff, checked float64
	for _, i := range firstOfEachGenerator(ref.cells) {
		c := ref.cells[i]
		plain += ref.min[i]
		variant := func(change func(*sim.Config)) float64 {
			cfg := c.job.Cfg
			change(&cfg)
			walls := make([]float64, sp.diffReps)
			for j := range walls {
				t0 := time.Now()
				res := sim.RunOneErr(cfg, c.job.W)
				walls[j] = time.Since(t0).Seconds()
				// Both paths must leave every simulated statistic as it was.
				ref.note(ck.check(c, res))
			}
			return minOf(walls)
		}
		noff += variant(func(cfg *sim.Config) { cfg.NoFastForward = true })
		checked += variant(func(cfg *sim.Config) { cfg.Check, cfg.CheckCommits = true, true })
	}
	ref.m.put("sim.noff_ratio", noff/plain)
	ref.m.put("check.on_ratio", checked/plain)
}

// runnerPass executes the workload's cells through sim.Runner on every
// processor, repeating the list until each worker has at least two
// jobs, and reports the pool's telemetry.
func runnerPass(ck *checker, ref *measured) {
	workers := runtime.GOMAXPROCS(0)
	var jobs []sim.Job
	var order []int
	serial := 0.0
	for len(jobs) < 2*workers {
		for i, c := range ref.cells {
			jobs = append(jobs, c.job)
			order = append(order, i)
			serial += ref.min[i]
		}
	}
	tel := telemetry.New()
	t0 := time.Now()
	results := sim.NewRunner().Jobs(workers).Collect(tel).RunAll(jobs)
	wall := time.Since(t0).Seconds()
	for j, res := range results {
		ref.note(ck.check(ref.cells[order[j]], res))
	}
	d := tel.Report().Diagnosis
	m := ref.m
	m.put("runner.workers", float64(workers))
	m.put("runner.parallel_wall_s", wall)
	m.put("runner.parallel_speedup", serial/wall)
	m.put("runner.worker_busy_fraction", d.WorkerBusyFraction)
	m.put("runner.construct_share", d.ConstructShare)
	m.put("runner.merge_share", d.MergeShare)
	m.put("runner.queue_share", d.QueueShare)
	m.put("runner.gc_pause_share", d.GCPauseShare)
}
