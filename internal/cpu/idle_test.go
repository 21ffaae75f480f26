package cpu

import (
	"reflect"
	"strings"
	"testing"

	"tssim/internal/isa"
	"tssim/internal/stats"
)

// stalledCore builds a small core (8-entry window, 2-entry LSQ) over
// a scripted fakeMem; oracle selects the full-pipeline twin.
func stalledCore(prog *isa.Program, script func(*Core, *fakeMem), violation *error) (*Core, *fakeMem, *stats.Counters) {
	f := newFakeMem()
	ctrs := stats.NewCounters()
	cfg := DefaultConfig()
	cfg.RUUSize, cfg.LSQSize = 8, 2
	c := New(cfg, 0, prog, f, ctrs)
	f.attach(c, ctrs)
	if violation != nil {
		c.SetOracle(violation)
	}
	if script != nil {
		script(c, f)
	}
	return c, f, ctrs
}

// One row per spin class: the stall counters an idle core keeps
// bumping. k naive ticks of the oracle twin and one tick plus
// SkipCycles over k-1 must leave identical counters and clock.
func TestSpinReplayMatchesNaiveTicks(t *testing.T) {
	const warm, k = 40, 25
	loadAt := func(addr int64) *isa.Program {
		b := isa.NewBuilder("ld")
		b.Li(isa.R1, addr).Ld(isa.R3, isa.R1, 0).Halt()
		return b.Build()
	}
	// A load that never completes heads the window; what follows it
	// decides which structure fills.
	behindMiss := func(fill func(b *isa.Builder)) *isa.Program {
		b := isa.NewBuilder("fill")
		b.Li(isa.R1, 0x200).Ld(isa.R3, isa.R1, 0)
		for i := 0; i < 24; i++ {
			fill(b)
		}
		b.Halt()
		return b.Build()
	}
	rows := []struct {
		name    string
		prog    *isa.Program
		script  func(*Core, *fakeMem)
		counter string
		perTick uint64
		spin    coreSpin
	}{
		{
			name: "store-buffer-full commit",
			prog: func() *isa.Program {
				b := isa.NewBuilder("st")
				b.Li(isa.R1, 0x100).Li(isa.R2, 5).St(isa.R2, isa.R1, 0).Halt()
				return b.Build()
			}(),
			script:  func(_ *Core, f *fakeMem) { f.sbFull = true },
			counter: "store/buffer_full", perTick: 1,
			spin: coreSpin{storeBufFull: 1},
		},
		{
			name:    "LSQ-full dispatch",
			prog:    behindMiss(func(b *isa.Builder) { b.Ld(isa.R4, isa.R1, 0) }),
			script:  func(_ *Core, f *fakeMem) { f.delayed[0x200] = true },
			counter: "cpu/lsq_full", perTick: 1,
			spin: coreSpin{lsqFull: 1},
		},
		{
			name:    "MSHR-exhausted counted load retry",
			prog:    loadAt(0x300),
			script:  func(_ *Core, f *fakeMem) { f.mshrFull[0x300] = true },
			counter: "l2/mshr_full", perTick: 1,
			spin: coreSpin{loadRetries: 1},
		},
		{
			name:   "pure retry behind a buffered SC",
			prog:   loadAt(0x300),
			script: func(_ *Core, f *fakeMem) { f.scBlocked[0x300] = true },
			spin:   coreSpin{},
		},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var violation error
			naive, _, nCtrs := stalledCore(r.prog, r.script, &violation)
			fast, _, fCtrs := stalledCore(r.prog, r.script, nil)
			for i := uint64(0); i < warm; i++ {
				naive.Tick(i)
				fast.Tick(i)
			}
			before := nCtrs.Get(r.counter)
			for i := uint64(warm); i < warm+k; i++ {
				naive.Tick(i)
			}
			fast.Tick(warm)
			if ne := fast.NextEvent(warm + 1); ne < warm+k {
				t.Fatalf("stalled core reports next event %d, want idle past %d", ne, warm+k)
			}
			if fast.idleSpin != r.spin {
				t.Fatalf("spin set %+v, want %+v", fast.idleSpin, r.spin)
			}
			fast.SkipCycles(warm+1, warm+k)

			if violation != nil {
				t.Fatalf("oracle twin: %v", violation)
			}
			if naive.ReplayedTicks() != 0 {
				t.Fatalf("oracle twin replayed %d ticks", naive.ReplayedTicks())
			}
			if r.counter != "" {
				if got := nCtrs.Get(r.counter) - before; got != k*r.perTick {
					t.Fatalf("%s advanced %d over %d naive ticks, want %d", r.counter, got, k, k*r.perTick)
				}
			}
			if n, f := nCtrs.Snapshot(), fCtrs.Snapshot(); !reflect.DeepEqual(n, f) {
				t.Fatalf("counters diverge:\nnaive %v\nfast  %v", n, f)
			}
			if naive.Cycles() != fast.Cycles() {
				t.Fatalf("clock: naive %d, fast %d", naive.Cycles(), fast.Cycles())
			}
		})
	}
}

// The oracle's audit: a memory system that changes what Load answers
// without a callback or a StateVersion bump breaks the verdict's
// contract, and the oracle must say where.
func TestOracleAuditLocatesVerdictViolation(t *testing.T) {
	b := isa.NewBuilder("ld")
	b.Li(isa.R1, 0x300).Ld(isa.R3, isa.R1, 0).Halt()
	prog := b.Build()
	blocked := func(_ *Core, f *fakeMem) { f.scBlocked[0x300] = true }

	cases := []struct {
		name   string
		change func(f *fakeMem)
		want   []string
	}{
		{
			name:   "load now hits",
			change: func(f *fakeMem) { delete(f.scBlocked, 0x300) },
			want:   []string{"cpu0 cycle 40:", "issue:true"},
		},
		{
			name:   "retry now counts",
			change: func(f *fakeMem) { delete(f.scBlocked, 0x300); f.mshrFull[0x300] = true },
			want:   []string{"cpu0 cycle 40:", "issue:false", "expected {lsqFull:0 storeBufFull:0 loadRetries:0}", "ticked {lsqFull:0 storeBufFull:0 loadRetries:1}"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var violation error
			c, f, _ := stalledCore(prog, blocked, &violation)
			for i := uint64(0); i < 40; i++ {
				c.Tick(i)
			}
			if violation != nil {
				t.Fatalf("violation before the change: %v", violation)
			}
			tc.change(f)
			c.Tick(40)
			if violation == nil {
				t.Fatal("oracle ticked through a broken verdict without reporting it")
			}
			for _, w := range tc.want {
				if !strings.Contains(violation.Error(), w) {
					t.Errorf("violation %q does not name %q", violation, w)
				}
			}
		})
	}
}
