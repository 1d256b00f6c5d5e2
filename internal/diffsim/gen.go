// Package diffsim is the differential fuzzing subsystem: a seeded
// random-program generator plus an oracle that cross-checks the
// out-of-order core under every secure-speculation scheme
// against the in-order architectural reference simulator (internal/isa's
// ArchSim).
//
// The paper's claims rest on the secure schemes changing *timing only*:
// committed architectural state must be identical to the unsafe baseline
// and to an in-order reference. The oracle machine-checks that claim over
// generated programs — committed-instruction-stream equality, final
// register and memory equality, liveness within a cycle bound — and,
// through the core's observation stream (core.Observer), the security invariants
// themselves: STT never issues a tainted transmitter while its taint root
// is unresolved, and NDA never broadcasts a speculative load's data.
//
// Every case is a reproducible (seed, feature-mask) pair. Any failure
// message embeds the exact `shadowbinding -fuzz-seed N -fuzz-mask M`
// invocation that replays it.
package diffsim

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/isa"
)

// FeatureMask selects which behaviours a generated program mixes. Each
// feature targets a distinct stressor of the secure schemes: shadows,
// tainted transmitters, delayed broadcasts, memory-ordering speculation,
// and control-flow recovery.
type FeatureMask uint16

// Program features.
const (
	// FeatALU emits random integer ALU mixes over a register pool.
	FeatALU FeatureMask = 1 << iota
	// FeatMulDiv emits multiplies and divides (variable-latency units;
	// divides are transmitters under STT).
	FeatMulDiv
	// FeatPointerChase emits serialized loads through a shuffled ring —
	// every hop's address is speculatively loaded data.
	FeatPointerChase
	// FeatIndirectLoad emits A[B[i]] pairs: the classic tainted-address
	// transmitter the STT schemes must block.
	FeatIndirectLoad
	// FeatDataDepBranch emits forward branches conditioned on loaded
	// bits: slow-resolving C-shadows and frequent mispredicts.
	FeatDataDepBranch
	// FeatStoreAlias emits store/load pairs over a tiny buffer with
	// computed addresses: D-shadows, store-to-load forwarding, and
	// memory-ordering violations.
	FeatStoreAlias
	// FeatCallReturn emits nested direct calls (return-address-stack
	// depth and jalr returns).
	FeatCallReturn
	// FeatIndirectCall emits jalr calls through a function-pointer table
	// loaded from memory (BTB-predicted indirect control flow).
	FeatIndirectCall

	numFeatures = 8
)

// FeatAll enables every feature.
const FeatAll = FeatureMask(1<<numFeatures) - 1

var featureNames = [numFeatures]string{
	"alu", "muldiv", "chase", "indirect-load",
	"dep-branch", "store-alias", "call", "indirect-call",
}

func (m FeatureMask) String() string {
	if m == 0 {
		return "none"
	}
	var parts []string
	for i := 0; i < numFeatures; i++ {
		if m&(1<<i) != 0 {
			parts = append(parts, featureNames[i])
		}
	}
	return strings.Join(parts, "+")
}

// Disjoint data-segment bases. Every generated address computation masks
// its index to the segment's (power-of-two) word count, so no program can
// read or write outside these regions.
const (
	ringBase   = 0x0001_0000 // pointer-chase ring
	tableABase = 0x0002_0000 // indirect-load value table
	tableBBase = 0x0003_0000 // indirect-load index table (entries index A)
	aliasBase  = 0x0004_0000 // tiny store/load aliasing buffer
	fptabBase  = 0x0005_0000 // function-pointer table (helper entry PCs)
	resultBase = 0x0006_0000 // epilogue register dump
	aliasWords = 4
	fptabWords = 4
	maxHelpers = 3 // bounded by the x26..x28 link-save registers
)

// Register roles. The value pool is freely read and clobbered by snippets
// and helpers; everything from x15 up is structural and only written where
// noted.
var poolRegs = []isa.Reg{
	isa.X4, isa.X5, isa.X6, isa.X7, isa.X8, isa.X9, isa.X10,
	isa.X11, isa.X12, isa.X13, isa.X14,
}

const (
	regChase  = isa.X15 // current pointer-chase node address
	regTabA   = isa.X17 // tableABase
	regTabB   = isa.X18 // tableBBase
	regAlias  = isa.X19 // aliasBase
	regFptab  = isa.X21 // fptabBase
	regResult = isa.X22 // resultBase
	regSave0  = isa.X26 // link saves for nested helper calls (x26..x28)
	regTmp    = isa.X29 // address scratch, never live across snippets
	regIter   = isa.X30 // monotonically increasing iteration counter
	regCount  = isa.X31 // loop countdown (the only backward-branch operand)
)

// genInsts is the instruction room Generate reserves up front, so a
// program's slice is allocated once instead of grown by doubling. Over
// 2,000 cases from base seed 7,000,000 generated programs have a median
// of 131 instructions, a p95 of 239 and a maximum of 360; a program past
// 256 grows once.
const genInsts = 256

// gen holds the generator's state for one program.
type gen struct {
	rng     *rand.Rand
	b       *isa.Builder
	mask    FeatureMask
	labelN  int
	helpers int // number of emitted helper functions

	// helperPCs records each helper's entry PC as it is emitted; the
	// function-pointer table for indirect calls is built from these
	// (labels stay internal to the builder until Build).
	helperPCs []uint64

	aWords int // tableA size (power of two)
	bWords int // tableB size (power of two)
	ringN  int // chase ring nodes (power of two)
}

// rngPool recycles the generator's random sources: a math/rand source is
// about 5 kB, and a campaign seeds two a case.
var rngPool = sync.Pool{New: func() any { return rand.New(rand.NewSource(1)) }}

// seeded returns a pooled *rand.Rand re-seeded with seed, which yields the
// same sequence as rand.New(rand.NewSource(seed)). Hand it back to rngPool
// when done.
func seeded(seed int64) *rand.Rand {
	r := rngPool.Get().(*rand.Rand)
	r.Seed(seed)
	return r
}

// Generate builds the program for one case. Generation is fully
// deterministic in the case: the same (seed, mask) always yields an
// identical program. Termination is by construction — the only backward
// branches are counted loops over regCount, data-dependent branches jump
// strictly forward, and calls form an acyclic chain of helpers — so every
// generated program halts on the in-order reference.
func Generate(c Case) *isa.Program {
	mask := c.Mask & FeatAll
	if mask == 0 {
		mask = FeatAll
	}
	rng := seeded(int64(c.Seed))
	defer rngPool.Put(rng)
	g := &gen{
		rng:  rng,
		b:    isa.NewBuilder(fmt.Sprintf("fuzz-%d-%#x", c.Seed, uint16(mask))),
		mask: mask,
	}
	g.b.Grow(genInsts)
	g.aWords = 16 << g.rng.Intn(3) // 16..64
	g.bWords = 16 << g.rng.Intn(3) // 16..64
	g.ringN = 8 << g.rng.Intn(3)   // 8..32
	g.emitData()

	// Layout: a jump over the helper bodies, the helpers, then main.
	g.b.J("main")
	g.emitHelpers()
	g.b.Label("main")
	g.emitInit()
	for loops := 1 + g.rng.Intn(3); loops > 0; loops-- {
		g.emitLoop()
	}
	g.emitEpilogue()
	return g.b.MustBuild()
}

func (g *gen) has(f FeatureMask) bool { return g.mask&f != 0 }

func (g *gen) label(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s%d", prefix, g.labelN)
}

func (g *gen) pool() isa.Reg { return poolRegs[g.rng.Intn(len(poolRegs))] }

// emitData lays down every data segment the feature mix can touch.
func (g *gen) emitData() {
	// Chase ring: a single cycle over all nodes, so the chase pointer can
	// never leave the ring no matter how many hops execute.
	order := g.rng.Perm(g.ringN)
	ring := make([]uint64, g.ringN)
	for i := 0; i < g.ringN; i++ {
		ring[order[i]] = ringBase + 8*uint64(order[(i+1)%g.ringN])
	}
	g.b.Data(ringBase, ring)

	tabA := make([]uint64, g.aWords)
	for i := range tabA {
		tabA[i] = g.rng.Uint64()
	}
	g.b.Data(tableABase, tabA)

	// tableB entries index tableA, so a double-indirect load is always
	// in bounds.
	tabB := make([]uint64, g.bWords)
	for i := range tabB {
		tabB[i] = uint64(g.rng.Intn(g.aWords))
	}
	g.b.Data(tableBBase, tabB)

	alias := make([]uint64, aliasWords)
	for i := range alias {
		alias[i] = g.rng.Uint64()
	}
	g.b.Data(aliasBase, alias)
}

// emitHelpers emits the call-chain helper functions: helper k does a small
// op mix and (below the deepest) saves its link and calls helper k+1. The
// chain is acyclic, so calls always return.
func (g *gen) emitHelpers() {
	if !g.has(FeatCallReturn | FeatIndirectCall) {
		return
	}
	g.helpers = 1 + g.rng.Intn(maxHelpers)
	for k := 0; k < g.helpers; k++ {
		g.helperPCs = append(g.helperPCs, g.b.PC())
		g.b.Label(helperName(k))
		for n := 1 + g.rng.Intn(3); n > 0; n-- {
			g.emitHelperOp()
		}
		if k+1 < g.helpers {
			save := regSave0 + isa.Reg(k)
			g.b.Add(save, isa.RegLink, isa.X0)
			g.b.Call(helperName(k + 1))
			g.b.Add(isa.RegLink, save, isa.X0)
		}
		if g.rng.Intn(2) == 0 {
			g.emitHelperOp()
		}
		g.b.Ret()
	}

	// Function-pointer table for indirect calls: helper entry PCs. Helper
	// labels resolve at Build time, so the table is built from the PCs
	// recorded as the helpers were emitted — which is why helpers precede
	// main in the layout.
	if g.has(FeatIndirectCall) {
		fptab := make([]uint64, fptabWords)
		for i := range fptab {
			fptab[i] = g.helperPC(g.rng.Intn(g.helpers))
		}
		g.b.Data(fptabBase, fptab)
	}
}

func helperName(k int) string { return fmt.Sprintf("helper%d", k) }

// helperPC returns the recorded entry PC of helper k.
func (g *gen) helperPC(k int) uint64 { return g.helperPCs[k] }

// emitHelperOp emits one helper-body operation: a pool ALU op or a safe
// table load.
func (g *gen) emitHelperOp() {
	if g.rng.Intn(3) == 0 {
		g.emitTableALoad(g.pool())
		return
	}
	g.emitALUOp()
}

// emitInit seeds the register pool and structural registers.
func (g *gen) emitInit() {
	for _, r := range poolRegs {
		g.b.Li(r, int64(g.rng.Uint64()))
	}
	g.b.Li(regTabA, tableABase)
	g.b.Li(regTabB, tableBBase)
	g.b.Li(regAlias, aliasBase)
	g.b.Li(regFptab, fptabBase)
	g.b.Li(regResult, resultBase)
	g.b.Li(regChase, ringBase+8*int64(g.rng.Intn(g.ringN)))
	g.b.Li(regIter, 0)
}

// emitLoop emits one counted loop whose body is a random snippet mix.
func (g *gen) emitLoop() {
	iters := 2 + g.rng.Intn(8)
	top := g.label("loop")
	g.b.Li(regCount, int64(iters))
	g.b.Label(top)
	snippets := g.enabledSnippets()
	for n := 6 + g.rng.Intn(12); n > 0; n-- {
		snippets[g.rng.Intn(len(snippets))]()
	}
	g.b.Addi(regIter, regIter, 1)
	g.b.Addi(regCount, regCount, -1)
	g.b.Bne(regCount, isa.X0, top)
}

// enabledSnippets returns the body emitters the feature mask allows. At
// least one is always available: a zero mask was normalized to FeatAll in
// Generate.
func (g *gen) enabledSnippets() []func() {
	var s []func()
	if g.has(FeatALU) {
		s = append(s, g.emitALUOp)
	}
	if g.has(FeatMulDiv) {
		s = append(s, g.snippetMulDiv)
	}
	if g.has(FeatPointerChase) {
		s = append(s, g.snippetChase)
	}
	if g.has(FeatIndirectLoad) {
		s = append(s, g.snippetIndirectLoad)
	}
	if g.has(FeatDataDepBranch) {
		s = append(s, g.snippetDepBranch)
	}
	if g.has(FeatStoreAlias) {
		s = append(s, g.snippetStoreAlias)
	}
	if g.has(FeatCallReturn) && g.helpers > 0 {
		s = append(s, g.snippetCall)
	}
	if g.has(FeatIndirectCall) && g.helpers > 0 {
		s = append(s, g.snippetIndirectCall)
	}
	if len(s) == 0 {
		s = append(s, g.emitALUOp)
	}
	return s
}

var rrOps = []isa.Op{
	isa.Add, isa.Sub, isa.And, isa.Or, isa.Xor,
	isa.Sll, isa.Srl, isa.Sra, isa.Slt, isa.Sltu,
}

var riOps = []isa.Op{
	isa.Addi, isa.Andi, isa.Ori, isa.Xori,
	isa.Slli, isa.Srli, isa.Srai, isa.Slti,
}

// emitALUOp emits one random ALU operation over the pool.
func (g *gen) emitALUOp() {
	if g.rng.Intn(2) == 0 {
		op := rrOps[g.rng.Intn(len(rrOps))]
		g.b.Emit(isa.Inst{Op: op, Rd: g.pool(), Rs1: g.pool(), Rs2: g.pool()})
		return
	}
	op := riOps[g.rng.Intn(len(riOps))]
	imm := int64(g.rng.Intn(4096) - 2048)
	switch op {
	case isa.Slli, isa.Srli, isa.Srai:
		imm = int64(g.rng.Intn(64))
	}
	g.b.Emit(isa.Inst{Op: op, Rd: g.pool(), Rs1: g.pool(), Imm: imm})
}

func (g *gen) snippetMulDiv() {
	op := []isa.Op{isa.Mul, isa.Mul, isa.Div, isa.Rem}[g.rng.Intn(4)]
	g.b.Emit(isa.Inst{Op: op, Rd: g.pool(), Rs1: g.pool(), Rs2: g.pool()})
}

// snippetChase hops the chase pointer: each hop's address is the previous
// hop's loaded data.
func (g *gen) snippetChase() {
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		g.b.Ld(regChase, regChase, 0)
	}
}

// emitTableALoad loads tableA at a masked pool index into rd.
func (g *gen) emitTableALoad(rd isa.Reg) {
	g.b.Andi(regTmp, g.pool(), int64(g.aWords-1))
	g.b.Slli(regTmp, regTmp, 3)
	g.b.Add(regTmp, regTmp, regTabA)
	g.b.Ld(rd, regTmp, 0)
}

// snippetIndirectLoad emits A[B[i]]: the second load's address derives
// from the first's speculatively loaded data.
func (g *gen) snippetIndirectLoad() {
	d := g.pool()
	g.b.Andi(regTmp, g.pool(), int64(g.bWords-1))
	g.b.Slli(regTmp, regTmp, 3)
	g.b.Add(regTmp, regTmp, regTabB)
	g.b.Ld(d, regTmp, 0) // d = B[i], an index into A
	g.b.Slli(regTmp, d, 3)
	g.b.Add(regTmp, regTmp, regTabA)
	g.b.Ld(d, regTmp, 0) // d = A[B[i]]
}

// snippetDepBranch branches forward over a short block on a loaded bit.
func (g *gen) snippetDepBranch() {
	v := g.pool()
	g.emitTableALoad(v)
	g.b.Andi(regTmp, v, 1<<g.rng.Intn(8))
	skip := g.label("skip")
	if g.rng.Intn(2) == 0 {
		g.b.Beq(regTmp, isa.X0, skip)
	} else {
		g.b.Bne(regTmp, isa.X0, skip)
	}
	for n := 1 + g.rng.Intn(3); n > 0; n-- {
		g.emitALUOp()
	}
	g.b.Label(skip)
}

// snippetStoreAlias emits a store and a load over the tiny alias buffer;
// one of the two addresses is computed from pool data (late-resolving),
// so the pair exercises D-shadows, forwarding, and ordering speculation.
func (g *gen) snippetStoreAlias() {
	fixed := int64(8 * g.rng.Intn(aliasWords))
	g.b.Andi(regTmp, g.pool(), aliasWords-1)
	g.b.Slli(regTmp, regTmp, 3)
	g.b.Add(regTmp, regTmp, regAlias)
	if g.rng.Intn(2) == 0 {
		// Computed (possibly tainted) store address, fixed reload.
		g.b.Sd(g.pool(), regTmp, 0)
		g.b.Ld(g.pool(), regAlias, fixed)
	} else {
		// Fixed store, computed reload: the load may bypass the store.
		g.b.Sd(g.pool(), regAlias, fixed)
		g.b.Ld(g.pool(), regTmp, 0)
	}
}

func (g *gen) snippetCall() {
	g.b.Call(helperName(g.rng.Intn(g.helpers)))
}

// snippetIndirectCall calls through the function-pointer table, indexed by
// the iteration counter so successive iterations hit different targets.
func (g *gen) snippetIndirectCall() {
	g.b.Andi(regTmp, regIter, fptabWords-1)
	g.b.Slli(regTmp, regTmp, 3)
	g.b.Add(regTmp, regTmp, regFptab)
	g.b.Ld(regTmp, regTmp, 0)
	g.b.Jalr(isa.RegLink, regTmp, 0)
}

// emitEpilogue dumps the live register state to the result area so every
// pool register's final value is part of the compared memory image, then
// halts.
func (g *gen) emitEpilogue() {
	off := int64(0)
	for _, r := range append(append([]isa.Reg{}, poolRegs...), regChase, regIter) {
		g.b.Sd(r, regResult, off)
		off += 8
	}
	g.b.Halt()
}
