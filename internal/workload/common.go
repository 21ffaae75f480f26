package workload

import (
	"fmt"

	"tssim/internal/isa"
	"tssim/internal/mem"
)

// Params scales a workload build.
type Params struct {
	CPUs  int
	Scale int // iteration multiplier; 1 = test-sized, larger = bench-sized
	// UnsafeISyncEvery makes every Nth kernel-style lock acquire
	// carry an unsafe isync (0 = never). Models the fraction of
	// kernel critical sections SLE's safety check cannot see through.
	UnsafeISyncEvery int
}

func (p Params) withDefaults() Params {
	if p.CPUs <= 0 {
		p.CPUs = 4
	}
	if p.Scale <= 0 {
		p.Scale = 1
	}
	return p
}

// Registers used by workload main loops (kernels clobber R1-R7).
const (
	rIter  = isa.R8  // outer loop counter
	rRnd   = isa.R9  // PRNG state
	rA0    = isa.R10 // address registers
	rA1    = isa.R11
	rA2    = isa.R12
	rA3    = isa.R13
	rV0    = isa.R14 // value scratch
	rV1    = isa.R15
	rSum   = isa.R16 // accumulator
	rLS    = isa.R17 // barrier local sense
	rOne   = isa.R18 // constant 1
	rMode  = isa.R19 // kernel-op mode
	rKAddr = isa.R20 // kernel-op operand address
	rInner = isa.R21 // inner loop counter
	rPtr   = isa.R22 // moving pointer
	rDel   = isa.R23 // delay chain register
)

// EmitKernelOp emits the shared "kernel synchronization routine" of
// §4.1/§4.2.3 inline: a single static LL/SC sequence that implements
// *both* lock acquisition (rMode != 0: spin until free, swap in 1) and
// an atomic fetch-and-increment (rMode == 0). Because the
// store-conditional is one static instruction serving both uses, the
// PC-indexed elision predictor suffers exactly the interference the
// paper describes: the atomic-increment uses are elision false
// positives (no reverting store ever follows) and they poison the
// confidence of the lock uses behind the same PC.
//
// The operand address is taken from rKAddr. After the routine, a lock
// acquire has the lock held (release with EmitRelease on rKAddr); an
// atomic op is complete.
func EmitKernelOp(b *isa.Builder, unsafeISync bool, backoff int) {
	retry := b.Here()
	atomicEntry := b.NewLabel()
	// Lock mode polls with a plain load first (test-and-test-and-set)
	// so the reservation window stays narrow; atomic mode goes
	// straight to the LL.
	b.Beq(rMode, isa.R0, atomicEntry)
	emitSpin(b, rT0, rKAddr, isa.R0) // held: park on the shared copy
	b.Mark(atomicEntry)
	b.LL(rT0, rKAddr, 0)
	atomic := b.NewLabel()
	store := b.NewLabel()
	b.Beq(rMode, isa.R0, atomic)
	b.Bne(rT0, isa.R0, retry) // taken between test and LL
	b.Li(rT1, 1)
	b.Jmp(store)
	b.Mark(atomic)
	b.Addi(rT1, rT0, 1)
	b.Mark(store)
	b.SC(rT1, rKAddr, 0, rT2) // one static SC for both idioms
	// Backoff after a failed SC (skewed per CPU by the caller): a
	// deterministic interconnect would otherwise livelock symmetric
	// contenders, which real systems break with software backoff.
	scOK := b.NewLabel()
	b.Bne(rT2, isa.R0, scOK)
	if backoff > 0 {
		b.Delay(rT1, backoff)
	}
	b.Jmp(retry)
	b.Mark(scOK)
	// Kernel lock paths are protected by a context-serializing isync
	// (§4.2.2); atomic ops are not. Emitting it unconditionally under
	// a mode test keeps the instruction static, like the real kernel
	// routine.
	skipISync := b.NewLabel()
	b.Beq(rMode, isa.R0, skipISync)
	b.ISync(unsafeISync)
	b.Mark(skipISync)
}

// emitSampledKernelInc emits a kernel statistic, batched: on every
// fourth pass of the loop counted down in rIter, one atomic increment
// of the word at ctr through EmitKernelOp's shared SC PC. Clobbers rT3,
// rKAddr and rMode.
func emitSampledKernelInc(b *isa.Builder, ctr int64, backoff int) {
	b.Li(rT3, 3)
	b.And(rT3, rIter, rT3)
	skip := b.NewLabel()
	b.Bne(rT3, isa.R0, skip)
	b.Li(rKAddr, ctr)
	b.Li(rMode, 0)
	EmitKernelOp(b, false, backoff)
	b.Mark(skip)
}

// expectWord builds a Validate closure checking one final word value.
func expectWord(addr uint64, want uint64, what string) func(*mem.Memory, func(uint64) uint64) error {
	return func(_ *mem.Memory, read func(uint64) uint64) error {
		if got := read(addr); got != want {
			return fmt.Errorf("%s: got %d, want %d", what, got, want)
		}
		return nil
	}
}

// combineValidators runs several validators in order.
func combineValidators(vs ...func(*mem.Memory, func(uint64) uint64) error) func(*mem.Memory, func(uint64) uint64) error {
	return func(m *mem.Memory, read func(uint64) uint64) error {
		for _, v := range vs {
			if v == nil {
				continue
			}
			if err := v(m, read); err != nil {
				return err
			}
		}
		return nil
	}
}

// generators is the one table All, ByName and Names read: the seven
// Table 2 workloads in Table 2 order.
var generators = []struct {
	name  string
	build func(Params) Workload
}{
	{"ocean", Ocean},
	{"radiosity", Radiosity},
	{"raytrace", Raytrace},
	{"specjbb", SpecJBB},
	{"specweb", SpecWeb},
	{"tpc-b", TPCB},
	{"tpc-h", TPCH},
}

// All builds every workload at the given parameters.
func All(p Params) []Workload {
	ws := make([]Workload, len(generators))
	for i, g := range generators {
		ws[i] = g.build(p)
	}
	return ws
}

// ByName builds one workload by its Table 2 name — only that one, so a
// layout limit of another generator cannot fail the call.
func ByName(name string, p Params) (Workload, error) {
	for _, g := range generators {
		if g.name == name {
			return g.build(p), nil
		}
	}
	return Workload{}, fmt.Errorf("workload: unknown name %q", name)
}

// Names lists the seven workload names in Table 2 order.
func Names() []string {
	names := make([]string, len(generators))
	for i, g := range generators {
		names[i] = g.name
	}
	return names
}
