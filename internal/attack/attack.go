// Package attack reproduces the paper's security verification (Section 7):
// a Spectre v1 proof-of-concept in the simulator's ISA, equivalent in
// structure to the BOOM-attacks suite the paper uses, plus a cache
// side-channel probe that renders the verdict.
//
// The victim gadget is the classic bounds-check bypass:
//
//	if (x < array1_size)              // array1_size is flushed: slow load
//	    y = array2[(array1[x]&63)*64] // two dependent transient loads
//
// The attacker trains the branch in-bounds, flushes array1_size, then
// supplies an out-of-bounds x that reaches a secret. On the unsafe
// baseline the second ("transmitter") load leaves the secret-indexed line
// in the cache; a real attacker would recover it by timing. The simulator
// simply inspects the tag arrays. Under STT the transmitter load is
// blocked while tainted; under NDA the secret value's broadcast is
// withheld; under DoM the transmitter's speculative miss is delayed past
// the squash; under InvisiSpec it runs invisibly and is never exposed —
// whatever the mechanism, the secret-indexed line must never be filled.
// The suites enumerate core.SecureSchemeKinds(), so a new roster row is
// attack-tested the moment it is added.
package attack

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/isa"
)

// Memory layout of the victim.
const (
	sizeAddr   = 0x0005_0000 // array1_size
	array1Addr = 0x0006_0000 // 8 in-bounds elements, secret beyond them
	array2Addr = 0x0100_0000 // probe array: 64 slots, one cache line apart

	array1Len  = 8
	slotStride = 512 // bytes between probe slots (8 lines: defeats prefetch)

	// SecretValue is planted out of bounds; its low 6 bits select the
	// probe slot. Chosen above array1Len so training never touches it.
	SecretValue = 42

	trainRounds = 64

	// nopSledLen isolates the flush point from out-of-order execution; it
	// must exceed every configuration's ROB size plus fetch buffering.
	nopSledLen = 256
)

// secretIndex is the out-of-bounds index reaching the secret.
const secretIndex = array1Len

// Result is the attack verdict for one scheme.
type Result struct {
	Scheme core.SchemeKind
	Config string

	// Leaked reports whether the secret's probe slot was cache-resident
	// after the transient run — a successful Spectre v1 transmission.
	Leaked bool
	// HotSlots lists probe slots (≥ array1Len's reach) found resident.
	HotSlots []int
	// GuessedSecret is the recovered value when exactly one slot is hot.
	GuessedSecret int

	Insts  uint64
	Cycles uint64
}

// victimProgram builds the trainer+victim binary. Phase 1 runs the gadget
// trainRounds times with in-bounds indices (training the branch
// not-taken-into-mispredict... i.e. the in-bounds path). Phase 2 (after
// the harness flushes array1_size) runs the gadget once with the
// out-of-bounds index.
func victimProgram() *isa.Program {
	b := isa.NewBuilder("spectre-v1")
	// array1: benign values 0..7 (their probe slots are < array1Len and
	// are excluded from the verdict); the secret sits right past the end.
	a1 := make([]uint64, array1Len+1)
	for i := 0; i < array1Len; i++ {
		a1[i] = uint64(i)
	}
	a1[array1Len] = SecretValue
	b.Data(array1Addr, a1)
	b.Data(sizeAddr, []uint64{array1Len})

	// Registers: x10 index, x20 size addr, x21 array1, x22 array2,
	// x5..x9 scratch, x28 training counter.
	b.Li(isa.X20, sizeAddr)
	b.Li(isa.X21, array1Addr)
	b.Li(isa.X22, array2Addr)
	// The victim legitimately uses its secret (e.g. as a key), so the
	// secret's cache line is warm — the standard Spectre v1 setting.
	b.Ld(isa.X5, isa.X21, array1Len*8)

	// Training loop: x10 = x28 & 7 (always in bounds).
	b.Li(isa.X28, 0)
	b.Label("train")
	b.Andi(isa.X10, isa.X28, 7)
	b.Call("victim")
	b.Addi(isa.X28, isa.X28, 1)
	b.Slti(isa.X5, isa.X28, trainRounds)
	b.Bne(isa.X5, isa.X0, "train")

	// Marker: a nop sled so the harness can pause cleanly between
	// training and the malicious call (the harness bounds by instruction
	// count, then flushes array1_size). The sled must exceed the ROB
	// depth plus front-end buffering: when the harness pauses at a commit
	// count just inside the sled, the execution frontier — up to a full
	// ROB ahead of commit — must still be inside the sled, or the
	// malicious load would already have executed before the flush.
	for i := 0; i < nopSledLen; i++ {
		b.Nop()
	}

	// Malicious call: out-of-bounds index.
	b.Li(isa.X10, secretIndex)
	b.Call("victim")
	b.Halt()

	// The gadget.
	b.Label("victim")
	b.Ld(isa.X5, isa.X20, 0)        // array1_size (slow when flushed)
	b.Bgeu(isa.X10, isa.X5, "done") // bounds check; predicted in-bounds
	b.Slli(isa.X6, isa.X10, 3)
	b.Add(isa.X6, isa.X6, isa.X21)
	b.Ld(isa.X7, isa.X6, 0) // array1[x] — the (possibly secret) value
	b.Andi(isa.X7, isa.X7, 63)
	b.Slli(isa.X8, isa.X7, 9) // * slotStride
	b.Add(isa.X8, isa.X8, isa.X22)
	b.Ld(isa.X9, isa.X8, 0) // transmitter: fills the secret-indexed line
	b.Label("done")
	b.Ret()
	return b.MustBuild()
}

// trainInsts is the exact dynamic instruction count through the end of
// training plus half the nop sled; the harness pauses there to flush
// array1_size.
func trainInsts() uint64 {
	const setup = 5 // three li, secret warm-up load, li x28
	// Per round: andi, jal, 10-instruction gadget (in-bounds path, incl.
	// ret), addi, slti, bne.
	const perRound = 2 + 10 + 3
	return setup + trainRounds*perRound + 8
}

// RunSpectreV1 runs the attack on the given configuration and scheme.
func RunSpectreV1(cfg core.Config, kind core.SchemeKind) (Result, error) {
	prog := victimProgram()
	c, err := core.New(cfg, kind, prog)
	if err != nil {
		return Result{}, err
	}
	// Phase 1: training.
	if _, err := c.Run(core.RunLimits{MaxInsts: trainInsts(), MaxCycles: 5_000_000}); err != nil {
		return Result{}, fmt.Errorf("attack: training: %w", err)
	}
	// The attacker flushes array1_size (clflush equivalent) and primes
	// the probe array out of the cache.
	c.Hierarchy().FlushLine(sizeAddr)
	for slot := 0; slot < 64; slot++ {
		c.Hierarchy().FlushLine(array2Addr + uint64(slot)*slotStride)
	}
	// Phase 2: the transient access.
	res, err := c.Run(core.RunLimits{MaxCycles: 10_000_000})
	if err != nil {
		return Result{}, fmt.Errorf("attack: transient phase: %w", err)
	}
	if !res.Halted {
		return Result{}, fmt.Errorf("attack: victim did not halt")
	}

	out := Result{Scheme: kind, Config: cfg.Name, GuessedSecret: -1,
		Insts: res.Insts, Cycles: res.Cycles}
	// Probe: any slot reachable only through the secret (training touches
	// slots < array1Len) that is now resident betrays the secret.
	for slot := array1Len; slot < 64; slot++ {
		if c.Hierarchy().Contains(array2Addr + uint64(slot)*slotStride) {
			out.HotSlots = append(out.HotSlots, slot)
		}
	}
	if len(out.HotSlots) == 1 {
		out.GuessedSecret = out.HotSlots[0]
	}
	out.Leaked = len(out.HotSlots) > 0
	return out, nil
}

// RunAll runs the attack under every scheme on cfg, in scheme order.
func RunAll(cfg core.Config) ([]Result, error) {
	var out []Result
	for _, kind := range core.SchemeKinds() {
		r, err := RunSpectreV1(cfg, kind)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
