// Package litmus checks the machine against TSO on the simulator's
// litmus machine (MachineConfig), both checkers attached: generated
// programs against closed-form finals, and litmus shapes (shapes.go)
// against an exhaustive TSO model (tsomodel.go, enumerate.go).
//
// Randomized litmus programs: small N-core workloads, generated from a
// 64-bit seed, whose final memory image is computable in closed form.
// Each program mixes exactly the idioms the paper's techniques key on —
// LL/SC lock acquire/release pairs (temporally silent), exact-revert
// silent store pairs on falsely shared private words, racing LL/SC
// fetch-and-adds, and plain shared loads — so running one program under
// every technique combo and checking the same expected finals is a
// differential oracle over the whole protocol space. The fuzz harness
// in internal/check's litmus_test.go drives these across sim.AllCombos
// with the coherence checker attached.
package litmus

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"tssim/internal/bus"
	"tssim/internal/isa"
	"tssim/internal/mem"
	"tssim/internal/sim"
	"tssim/internal/workload"
)

// Litmus memory layout. Locks get a line each; counters and cells
// each share one line, and per-CPU slots pack eight to a line (one
// line at ≤8 CPUs, two at 16), so every flavor of false sharing is
// exercised. Cell j is protected by lock j%litmusLocks; slots are
// private to their CPU (word i%8 of slot line i/8 belongs to CPU i).
const (
	litmusLockBase = 0x1000 // + j*0x40, one line per lock
	litmusCtrBase  = 0x4000 // + j*8, all counters in one line
	litmusCellBase = 0x5000 // + j*8, all cells in one line
	litmusSlotBase = 0x6000 // + i*8, CPU i's private word

	litmusLocks = 2
	litmusCtrs  = 4
	litmusCells = 4
)

// Params identifies one litmus program. The zero value is not
// useful; Program normalizes out-of-range fields, so any byte soup from
// the fuzzer names a valid program.
type Params struct {
	Seed uint64 // also the machine's jitter seed
	CPUs int    // clamped to [2, 16]
	Ops  int    // operations per CPU, clamped to [1, 48]
}

// litmusMaxCPUs bounds generated programs. 16 keeps the slot line
// layout honest (the private-slot region is two lines at 16 CPUs) and
// covers every machine size the experiments sweep uses below the
// directory's 64-node ceiling.
const litmusMaxCPUs = 16

func (p Params) normalized() Params {
	if p.CPUs < 2 {
		p.CPUs = 2
	}
	if p.CPUs > litmusMaxCPUs {
		p.CPUs = litmusMaxCPUs
	}
	if p.Ops < 1 {
		p.Ops = 1
	}
	if p.Ops > 48 {
		p.Ops = 48
	}
	return p
}

// String renders the params in the replayable form the fuzz failure
// report prints: pass it back through -litmus.replay.
func (p Params) String() string {
	p = p.normalized()
	return fmt.Sprintf("seed=%#x cpus=%d ops=%d", p.Seed, p.CPUs, p.Ops)
}

// Repro names a litmus run: a library shape at one Variant, or a
// generated program (Params, whose seed also seeds the machine) on the
// default schedule, pinned to Variant's combo, kernel path and fabric
// or, with Pinned false, at every combo. String and ParseRepro share
// one syntax, "shape=NAME" then the knobs Variant prints — so an
// enumeration report's "first at" point replays after its shape's
// name — or "seed=0x… cpus=N ops=M [tech=COMBO path=ff|noff] [ic=KIND]".
type Repro struct {
	Shape   string // library shape name; "" = the generated program Params
	Params  Params
	Variant Variant
	Pinned  bool // the run is Variant's; false sweeps every combo
}

func (r Repro) String() string {
	if r.Shape != "" {
		return "shape=" + r.Shape + " " + r.Variant.String()
	}
	s := r.Params.String()
	if r.Pinned {
		s += fmt.Sprintf(" tech=%s path=%s", r.Variant.Tech, r.Variant.path())
	}
	if r.Variant.Interconnect != "" {
		s += " ic=" + r.Variant.Interconnect
	}
	return s
}

// reproToken is one key=value of a replay line; a list, off=[0 320],
// spans spaces.
var reproToken = regexp.MustCompile(`\S+=\[[^\]]*\]|\S+`)

// ParseRepro parses a replay line as printed by Repro.String (or the
// bare Params.String form, or a shape and a "first at" point).
func ParseRepro(s string) (Repro, error) {
	var r Repro
	have := map[string]bool{}
	for _, tok := range reproToken.FindAllString(s, -1) {
		key, val, _ := strings.Cut(tok, "=")
		have[key] = true
		var err error
		switch v := &r.Variant; key {
		case "shape":
			if r.Shape = val; ShapeByName(val) == nil {
				err = fmt.Errorf("have %v", ShapeNames())
			}
		case "seed":
			v.Seed, err = strconv.ParseUint(val, 0, 64)
		case "cpus":
			r.Params.CPUs, err = strconv.Atoi(val)
		case "ops":
			r.Params.Ops, err = strconv.Atoi(val)
		case "off":
			v.Offsets, err = parseList(val, func(s string) (uint64, error) { return strconv.ParseUint(s, 10, 64) })
		case "dly":
			v.Delays, err = parseList(val, strconv.Atoi)
		case "arb":
			v.ArbStart, err = strconv.Atoi(val)
		case "tech":
			v.Tech, err = sim.ParseTechniques(val)
		case "path":
			if v.NoFF = val == "noff"; val != "ff" && !v.NoFF {
				err = fmt.Errorf("want ff or noff")
			}
		case "ic":
			if v.Interconnect = val; !bus.ValidKind(val) {
				err = fmt.Errorf("want %s", strings.Join(bus.Kinds(), "|"))
			}
		default:
			err = fmt.Errorf("unrecognized")
		}
		if err != nil {
			return Repro{}, fmt.Errorf("repro %q: %s: %v", s, tok, err)
		}
	}
	r.Pinned = have["tech"] || have["path"] || r.Shape != ""
	switch {
	case r.Shape != "":
	case !have["seed"] || !have["cpus"] || !have["ops"]:
		return Repro{}, fmt.Errorf("repro %q: want shape=NAME, or seed=0x… cpus=N ops=M", s)
	case have["off"] || have["dly"] || have["arb"]:
		return Repro{}, fmt.Errorf("repro %q: a generated program runs on the default schedule", s)
	default:
		r.Params.Seed, r.Variant.Seed = r.Variant.Seed, 0
	}
	return r, nil
}

// parseList reads a list as fmt prints it, "[0 320]".
func parseList[T any](s string, parse func(string) (T, error)) (out []T, err error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return nil, fmt.Errorf("want a bracketed list")
	}
	for _, f := range strings.Fields(s[1 : len(s)-1]) {
		v, err := parse(f)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// litmusRNG is a splitmix64 stream; the generator draws every choice
// from it so one seed fully determines the program.
type litmusRNG struct{ x uint64 }

func (r *litmusRNG) next() uint64 {
	r.x += 0x9e3779b97f4a7c15
	z := r.x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *litmusRNG) intn(n int) int { return int(r.next() % uint64(n)) }

// Scratch registers for litmus programs, above the R1-R5 range the
// workload kernels clobber.
const (
	litRA   = isa.R8  // operand address
	litRV   = isa.R9  // value scratch
	litRV2  = isa.R10 // second value scratch
	litRSum = isa.R11 // shared-load sink
	litRDel = isa.R12 // delay chain register
)

// Program generates the program set and the closed-form expected finals
// for every tracked word (locks free, counters and cells at their
// summed totals, slots at the last value each CPU wrote). The returned
// workload's Validate checks exactly that map, so a litmus run fails
// functionally the moment any combo loses a store, resurrects a stale
// value, or leaks a lock.
func Program(p Params) (workload.Workload, map[uint64]uint64) {
	p = p.normalized()
	rng := &litmusRNG{x: p.Seed}

	expected := make(map[uint64]uint64)
	for j := 0; j < litmusLocks; j++ {
		expected[litmusLockBase+uint64(j)*mem.LineSize] = 0
	}
	for j := 0; j < litmusCtrs; j++ {
		expected[litmusCtrBase+uint64(j)*8] = 0x100 + uint64(j)
	}
	for j := 0; j < litmusCells; j++ {
		expected[litmusCellBase+uint64(j)*8] = 0x200 + uint64(j)
	}
	for i := 0; i < p.CPUs; i++ {
		expected[litmusSlotBase+uint64(i)*8] = 0x300 + uint64(i)
	}
	init := make(map[uint64]uint64, len(expected))
	for a, v := range expected {
		init[a] = v
	}

	progs := make([]*isa.Program, p.CPUs)
	for cpu := 0; cpu < p.CPUs; cpu++ {
		b := isa.NewBuilder(fmt.Sprintf("litmus-cpu%d", cpu))
		slot := uint64(litmusSlotBase + cpu*8)
		// Skewed backoff: symmetric contenders on a deterministic bus
		// can LL/SC-livelock without it.
		backoff := 60 + cpu*37
		for op := 0; op < p.Ops; op++ {
			switch rng.intn(6) {
			case 0: // racing LL/SC fetch-and-add on a shared counter
				c := rng.intn(litmusCtrs)
				d := int64(1 + rng.intn(8))
				addr := uint64(litmusCtrBase + c*8)
				b.Li(litRA, int64(addr))
				workload.EmitAtomicAdd(b, litRA, d, isa.R0, backoff)
				expected[addr] += uint64(d)
			case 1: // lock-protected add: acquire/release is a silent pair
				c := rng.intn(litmusCells)
				lock := uint64(litmusLockBase + (c%litmusLocks)*mem.LineSize)
				addr := uint64(litmusCellBase + c*8)
				d := int64(1 + rng.intn(16))
				unsafeISync := rng.intn(8) == 0 // occasionally defeat SLE
				b.Li(litRA, int64(lock))
				workload.EmitAcquire(b, litRA, unsafeISync, backoff)
				b.Li(litRV, int64(addr))
				b.Ld(litRV2, litRV, 0)
				b.Addi(litRV2, litRV2, d)
				b.St(litRV2, litRV, 0)
				workload.EmitRelease(b, litRA)
				expected[addr] += uint64(d)
			case 2: // private slot write (falsely shared line)
				v := rng.next() | 1 // nonzero so reverts stay distinguishable
				b.Li(litRA, int64(slot))
				b.Li(litRV, int64(v))
				b.St(litRV, litRA, 0)
				expected[slot] = v
			case 3: // exact-revert silent pair on the private slot
				b.Li(litRA, int64(slot))
				b.Ld(litRV, litRA, 0)
				b.Addi(litRV2, litRV, 1)
				b.St(litRV2, litRA, 0)
				b.Work(10 + rng.intn(30))
				b.St(litRV, litRA, 0) // temporally silent: restores the old value
			case 4: // plain shared load (racy read; value not validated)
				var addr uint64
				if rng.intn(2) == 0 {
					addr = uint64(litmusCtrBase + rng.intn(litmusCtrs)*8)
				} else {
					addr = uint64(litmusCellBase + rng.intn(litmusCells)*8)
				}
				b.Li(litRA, int64(addr))
				b.Ld(litRV, litRA, 0)
				b.Add(litRSum, litRSum, litRV)
			case 5: // think time: decorrelates the CPUs' lock arrivals
				b.Delay(litRDel, 20+rng.intn(100))
			}
		}
		b.Halt()
		progs[cpu] = b.Build()
	}

	w := workload.Workload{
		Name:     fmt.Sprintf("litmus-%016x-c%d-o%d", p.Seed, p.CPUs, p.Ops),
		Programs: progs,
		Init: func(m *mem.Memory) {
			for a, v := range init {
				m.WriteWord(a, v)
			}
		},
		Validate: func(_ *mem.Memory, read func(uint64) uint64) error {
			for a, want := range expected {
				if got := read(a); got != want {
					return fmt.Errorf("litmus final @%#x: got %#x, want %#x", a, got, want)
				}
			}
			return nil
		},
	}
	return w, expected
}
