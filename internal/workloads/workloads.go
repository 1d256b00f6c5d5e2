// Package workloads provides the SPEC CPU2017 proxy suite: 22 synthetic
// benchmarks, one per SPEC benchmark the paper runs (Figure 6), generated
// from a common parameterized kernel.
//
// SPEC CPU2017 is proprietary and its binaries cannot ship with this
// repository, so each proxy is parameterized to reproduce the *behavioural
// character* that drives the paper's per-benchmark results. The
// load-bearing behaviours, and the scheme costs they trigger:
//
//   - Gate loads: occasional cache-missing loads (hashed indices into a
//     large array, defeating the prefetcher) feeding a data-dependent
//     branch. While the miss is outstanding the branch cannot resolve, so
//     everything younger executes under a long C-shadow — the window in
//     which the baseline exploits speculation and the secure schemes pay.
//   - Indirect loads (A[B[i]]): the second load's address derives from
//     speculatively loaded data — a tainted transmitter. STT blocks it
//     until the B load is non-speculative; the baseline issues it at once.
//   - Data-dependent branches on loaded bits: slow to resolve (extending
//     shadows) and, when the bit is random, frequently mispredicted; under
//     STT their resolution is further delayed by tainting.
//   - Dependent ALU chains off loads: invisible instructions that STT
//     executes freely but NDA stalls behind the delayed load broadcast —
//     the cactuBSSN/imagick signature (Section 8.1).
//   - Store/reload with a *tainted* store address and an *untainted*
//     reload address over a tiny buffer: when a scheme delays the tainted
//     store address, the untainted reload executes against stale memory
//     and is squashed when the store address resolves — the exchange2
//     store-to-load forwarding-error anomaly (Section 9.2).
//   - Independent ALU work: issue-width food; its loss under a stalled
//     front of blocked transmitters is what makes wider cores lose more.
package workloads

import (
	"fmt"

	"repro/internal/isa"
)

// Profile parameterizes one proxy kernel. The zero value of each knob
// disables the corresponding behaviour.
type Profile struct {
	Name      string
	Character string // one-line behavioural summary

	Iters int // loop iterations at scale 1 (sized to outlast cycle budgets)

	// Gate: shadow generator. Every GateEvery-th unrolled copy loads from
	// a GateWords-sized array at a hashed (prefetch-hostile) index and
	// branches on the value.
	GateEvery int
	GateWords int // footprint: 1<<15 words ≈ L2-resident, 1<<17 ≈ DRAM
	// GateIndirect loads the gate address from an L1-resident pointer
	// table first, making the missing gate load a *tainted-address*
	// transmitter. Under the baseline, independent gate misses overlap
	// (memory-level parallelism); STT blocks each pointer-derived gate
	// load until the previous window clears and NDA withholds the pointer
	// value itself, so both serialize the misses — the MLP destruction
	// that dominates pointer-chasing benchmarks (mcf, omnetpp).
	GateIndirect bool

	// Streaming memory traffic (prefetch-friendly).
	StreamArrays int // number of concurrently walked arrays (max 2)
	StreamWords  int // words per array (power of two)
	ALUPerLoad   int // dependent ALU ops chained onto each loaded value

	// Indirect loads: A[B[i]] pairs per unrolled copy over small tables.
	IndirectLoads int

	// Pointer chasing (serialized, prefetch-hostile).
	ChaseNodes   int // shuffled list length (power of two), 0 = none
	ChaseStride  int // bytes between nodes
	ChasePerIter int // hops per unrolled copy
	DepBranch    bool

	// Hard-to-predict branch on loaded data.
	RandBranchBit int
	BranchDepLoad bool

	// LagBranch emits a perfectly-predictable branch whose operand is
	// loaded data from two unrolled copies ago. Its taint root is old
	// enough to be safe under STT by the time the branch issues, but under
	// NDA the operand's *arrival* is chained through delayed broadcasts,
	// serializing shadow resolution — the NDA-only cascade behind the
	// paper's imagick/cactuBSSN results (Section 8.1). Mutually exclusive
	// with IndirectLoads (register budget).
	LagBranch bool

	// Store traffic.
	StoreEvery int  // streaming store every N unrolled copies (0 = none)
	STLF       bool // tainted-store-address / untainted-reload buffer traffic

	IndepALU int // independent ALU ops per unrolled copy

	MulEvery  int // long-latency arithmetic in 1-of-N copies (0 = never)
	DivEvery  int
	CallEvery int

	Unroll int // static unroll factor (default 2)
}

// Data-segment bases; each proxy instance uses disjoint regions.
const (
	streamBase   = 0x0100_0000
	chaseBase    = 0x0800_0000
	stlfBase     = 0x0010_0000
	outBase      = 0x0400_0000
	gateBase     = 0x2000_0000
	gateIdxBase  = 0x3000_0000 // pointer table for GateIndirect
	indirectBase = 0x0020_0000 // B index table; A table right after
)

const gateIdxWords = 4096 // L1/L2-resident pointer table

const indirectWords = 512 // words in each of the A and B indirect tables

// Profile bounds. Profiles arrive over the network (the farm's experiment
// route), so Validate bounds every knob that sizes an allocation or the
// program's length; each bound admits every Suite row with headroom.
const (
	maxIters       = 1 << 24 // Suite: 200,000
	maxWords       = 1 << 20 // GateWords, StreamWords; Suite: at most 1<<16
	maxChaseNodes  = 1 << 14 // Suite: 512
	maxChaseStride = 512     // bytes; Suite: 64
	maxPerCopy     = 32      // ALUPerLoad, IndirectLoads, ChasePerIter, IndepALU; Suite: at most 8
	maxUnroll      = 16      // Suite: 0 (the default, 2)
)

// Validate checks that Build can generate the profile: a name, the bounds
// above, the power-of-two table sizes the generator masks addresses with,
// and LagBranch's register and stream requirements.
func (p Profile) Validate() error {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	in := func(n, hi int) bool { return n >= 0 && n <= hi }
	switch {
	case p.Name == "":
		return fmt.Errorf("workloads: empty profile name")
	case p.Iters < 1 || p.Iters > maxIters:
		return fmt.Errorf("workloads: %s: iterations %d out of range [1,%d]", p.Name, p.Iters, maxIters)
	case !in(p.GateWords, maxWords) || !in(p.StreamWords, maxWords):
		return fmt.Errorf("workloads: %s: gate/stream words %d/%d out of range [0,%d]",
			p.Name, p.GateWords, p.StreamWords, maxWords)
	case p.GateEvery > 0 && !pow2(p.GateWords):
		return fmt.Errorf("workloads: %s: gate words %d not a power of two", p.Name, p.GateWords)
	case !in(p.StreamArrays, 2):
		return fmt.Errorf("workloads: %s: stream arrays %d out of range [0,2]", p.Name, p.StreamArrays)
	case p.StreamArrays > 0 && !pow2(p.StreamWords):
		return fmt.Errorf("workloads: %s: stream words %d not a power of two", p.Name, p.StreamWords)
	case !in(p.ChaseNodes, maxChaseNodes) || p.ChaseNodes > 0 && !pow2(p.ChaseNodes):
		return fmt.Errorf("workloads: %s: chase nodes %d not zero or a power of two up to %d", p.Name, p.ChaseNodes, maxChaseNodes)
	case !in(p.ChaseStride, maxChaseStride):
		return fmt.Errorf("workloads: %s: chase stride %d out of range [0,%d]", p.Name, p.ChaseStride, maxChaseStride)
	case !in(p.ALUPerLoad, maxPerCopy) || !in(p.IndirectLoads, maxPerCopy) ||
		!in(p.ChasePerIter, maxPerCopy) || !in(p.IndepALU, maxPerCopy):
		return fmt.Errorf("workloads: %s: per-copy operation count out of range [0,%d]", p.Name, maxPerCopy)
	case !in(p.Unroll, maxUnroll):
		return fmt.Errorf("workloads: %s: unroll %d out of range [0,%d]", p.Name, p.Unroll, maxUnroll)
	case p.LagBranch && p.IndirectLoads > 0:
		return fmt.Errorf("workloads: %s: LagBranch and IndirectLoads are mutually exclusive (x16/x17)", p.Name)
	case p.LagBranch && p.StreamArrays < 1:
		return fmt.Errorf("workloads: %s: LagBranch requires at least one stream array", p.Name)
	}
	return nil
}

// Build generates the proxy program. scale multiplies the iteration count
// so callers can trade run time for measurement stability. It panics on a
// profile Validate rejects.
func (p Profile) Build(scale int) *isa.Program {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	if scale < 1 {
		scale = 1
	}
	if p.Unroll < 1 {
		p.Unroll = 2
	}
	b := isa.NewBuilder(p.Name)
	rng := newSplitMix(hashName(p.Name))

	p.emitData(b, rng)
	p.emitSetup(b, scale)

	b.Label("loop")
	for u := 0; u < p.Unroll; u++ {
		p.emitIteration(b, u)
	}
	b.Addi(isa.X28, isa.X28, int64(p.Unroll))
	b.Blt(isa.X28, isa.X29, "loop")
	b.Label("end")
	b.Halt()
	return b.MustBuild()
}

func (p Profile) emitData(b *isa.Builder, rng *splitMix) {
	for a := 0; a < p.StreamArrays && a < 2; a++ {
		words := make([]uint64, p.StreamWords)
		for i := range words {
			words[i] = rng.next() >> 4
		}
		b.Data(streamArrayBase(a, p.StreamWords), words)
	}
	if p.GateEvery > 0 {
		// Non-zero values so the gate branch (beq x, x0) is never taken.
		words := make([]uint64, p.GateWords)
		for i := range words {
			words[i] = rng.next()>>8 | 1
		}
		b.Data(gateBase, words)
		if p.GateIndirect {
			idx := make([]uint64, gateIdxWords)
			for i := range idx {
				idx[i] = gateBase + (rng.next()%uint64(p.GateWords))*8
			}
			b.Data(gateIdxBase, idx)
		}
	}
	if p.IndirectLoads > 0 {
		bTab := make([]uint64, indirectWords)
		aTab := make([]uint64, indirectWords)
		for i := range bTab {
			bTab[i] = rng.next() % indirectWords
			aTab[i] = rng.next() >> 4
		}
		b.Data(indirectBase, bTab)
		b.Data(indirectBase+8*indirectWords, aTab)
	}
	if p.ChaseNodes > 0 {
		stride := p.ChaseStride
		if stride < 8 {
			stride = 8
		}
		words := make([]uint64, p.ChaseNodes*stride/8)
		perm := permutation(p.ChaseNodes, rng)
		for i := 0; i < p.ChaseNodes; i++ {
			words[i*stride/8] = chaseBase + uint64(perm[i])*uint64(stride)
		}
		b.Data(chaseBase, words)
	}
	if p.STLF {
		b.Data(stlfBase, make([]uint64, 16))
	}
}

// Register plan:
//
//	x5,x6    stream values   x7..x13  scratch
//	x14,x15  leaf/arith      x16,x17  indirect values
//	x18,x19  stream ptrs     x20      chase ptr
//	x21      STLF buffer     x22      output base
//	x23      gate base       x24      indirect B base
//	x25      indirect A base x26,x27  accumulators
//	x28,x29  loop counter/limit       x30,x31 address scratch
func (p Profile) emitSetup(b *isa.Builder, scale int) {
	b.Li(isa.X21, stlfBase)
	b.Li(isa.X22, outBase)
	b.Li(isa.X23, gateBase)
	b.Li(isa.X24, indirectBase)
	b.Li(isa.X25, indirectBase+8*indirectWords)
	b.Li(isa.X20, chaseBase)
	b.Li(isa.X27, 1)
	b.Li(isa.X26, 0)
	b.Li(isa.X28, 0)
	b.Li(isa.X29, int64(p.Iters*scale))
	for i := 0; i < p.StreamArrays && i < 2; i++ {
		b.Li(streamPtrReg(i), int64(streamArrayBase(i, p.StreamWords)))
	}
	if p.CallEvery > 0 {
		b.J("entry")
		b.Label("leaf")
		b.Addi(isa.X15, isa.X15, 3)
		b.Xor(isa.X14, isa.X14, isa.X15)
		b.Ret()
		b.Label("entry")
	}
}

// emitIteration emits one unrolled copy of the kernel body.
func (p Profile) emitIteration(b *isa.Builder, u int) {
	acc := isa.X27

	// Lag branch: never taken (stream values are non-negative), perfectly
	// predictable, but it cannot resolve before data loaded two copies ago
	// arrives — and under NDA that arrival is itself broadcast-delayed.
	if p.LagBranch {
		b.Blt(isa.X17, isa.X0, "end")
	}

	// Gate: hashed-index load into the big array plus a branch on the
	// loaded value. The hash is counter-derived (untainted, ready early),
	// so the load issues immediately and misses often; the branch then
	// shadows everything below until the miss returns.
	if p.GateEvery > 0 && u%p.GateEvery == 0 {
		if p.GateIndirect {
			// Pointer-table hop: the gate address is loaded data, so the
			// missing gate load has a tainted address.
			b.Slli(isa.X7, isa.X28, 5)
			b.Xor(isa.X7, isa.X7, isa.X28)
			b.Addi(isa.X7, isa.X7, int64(u*977))
			b.Andi(isa.X7, isa.X7, gateIdxWords-1)
			b.Slli(isa.X7, isa.X7, 3)
			b.Lui(isa.X9, gateIdxBase)
			b.Add(isa.X7, isa.X7, isa.X9)
			b.Ld(isa.X7, isa.X7, 0) // pointer load (L1/L2 resident)
		} else {
			mask := int64(p.GateWords - 1)
			b.Slli(isa.X7, isa.X28, 7)
			b.Xor(isa.X7, isa.X7, isa.X28)
			b.Addi(isa.X7, isa.X7, int64(u*977))
			b.Andi(isa.X7, isa.X7, mask)
			b.Slli(isa.X7, isa.X7, 3)
			b.Add(isa.X7, isa.X7, isa.X23)
		}
		b.Ld(isa.X8, isa.X7, 0)
		// The gate value feeds only the branch: the miss creates a long
		// speculation shadow without serializing the dataflow below, so
		// the baseline hides it and the secure schemes pay their costs.
		b.Beq(isa.X8, isa.X0, "end") // never taken: gate words are non-zero
	}

	// Streaming loads with dependent ALU chains (NDA's loss: the chain
	// stalls on the withheld broadcast; STT runs it — invisible ops).
	for a := 0; a < p.StreamArrays && a < 2; a++ {
		ptr := streamPtrReg(a)
		val := isa.Reg(uint8(isa.X5) + uint8(a))
		b.Ld(val, ptr, int64(8*u))
		if p.LagBranch && a == 0 {
			// Shift the lag chain off the raw loaded value; the right
			// shift keeps it provably non-negative so the lag branch
			// stays never-taken.
			b.Add(isa.X17, isa.X16, isa.X0)
			b.Srli(isa.X16, val, 1)
		}
		for k := 0; k < p.ALUPerLoad; k++ {
			switch k % 3 {
			case 0:
				b.Addi(val, val, int64(13+k))
			case 1:
				b.Xori(val, val, 0x5A)
			case 2:
				b.Srli(val, val, 1)
			}
		}
		b.Add(acc, acc, val)
	}
	if p.StreamArrays > 0 && u == p.Unroll-1 {
		// Advance and wrap the stream pointers once per loop body.
		mask := int64(p.StreamWords*8 - 1)
		for aa := 0; aa < p.StreamArrays && aa < 2; aa++ {
			pr := streamPtrReg(aa)
			base := int64(streamArrayBase(aa, p.StreamWords))
			b.Addi(pr, pr, 8*int64(p.Unroll))
			b.Andi(isa.X7, pr, mask)
			b.Lui(isa.X8, base)
			b.Add(pr, isa.X8, isa.X7)
		}
	}

	// Indirect loads: the A load's address depends on speculatively
	// loaded B data — a tainted transmitter with quickly-ready operands.
	for k := 0; k < p.IndirectLoads; k++ {
		bv := isa.X16
		av := isa.X17
		b.Addi(isa.X30, isa.X28, int64(u*7+k*13))
		b.Andi(isa.X30, isa.X30, indirectWords-1)
		b.Slli(isa.X30, isa.X30, 3)
		b.Add(isa.X30, isa.X30, isa.X24)
		b.Ld(bv, isa.X30, 0) // B[i]: L1-resident, fast data, slow non-speculation
		b.Andi(isa.X31, bv, indirectWords-1)
		b.Slli(isa.X31, isa.X31, 3)
		b.Add(isa.X31, isa.X31, isa.X25)
		b.Ld(av, isa.X31, 0) // A[B[i]]: tainted address
		b.Add(acc, acc, av)
	}

	// Serialized pointer chase.
	for h := 0; h < p.ChasePerIter; h++ {
		b.Ld(isa.X20, isa.X20, 0)
		if p.DepBranch {
			b.Beq(isa.X20, isa.X0, "end") // never taken
		}
	}
	if p.ChasePerIter > 0 {
		b.Add(acc, acc, isa.X20)
	}

	// Hard-to-predict branch on loaded data.
	if p.RandBranchBit > 0 {
		src := isa.X5
		if p.IndirectLoads > 0 {
			src = isa.X17
		}
		if !p.BranchDepLoad {
			src = isa.X28
		}
		skip := fmt.Sprintf("rb_%d", u)
		b.Srli(isa.X9, src, int64(p.RandBranchBit%16))
		b.Andi(isa.X9, isa.X9, 1)
		b.Beq(isa.X9, isa.X0, skip)
		b.Addi(acc, acc, 5)
		b.Xor(isa.X26, isa.X26, acc)
		b.Label(skip)
	}

	// Store/reload traffic, exchange2-style (Section 9.2): the store's
	// address is counter-derived (untainted, ready early) but its DATA is
	// the reload accumulator, whose taint root is always the previous
	// reload. STT-Rename computes one YRoT over both operands, so the
	// tainted data blocks the address half too — the address never becomes
	// visible to the LSU, the reload to the same slot speculates past it,
	// reads stale data, and is squashed when the store address finally
	// resolves (a forwarding error). STT-Issue taints the halves
	// independently and issues the untainted address early, avoiding most
	// errors; NDA and the baseline forward normally. The reload feeds only
	// a sink accumulator, so the pair stays off the critical path: its
	// cost appears as violations and flushes, not data-dependence.
	if p.STLF {
		b.Addi(isa.X10, isa.X28, int64(u*5))
		b.Andi(isa.X10, isa.X10, 7)
		b.Slli(isa.X10, isa.X10, 3)
		b.Add(isa.X10, isa.X10, isa.X21)
		b.Sd(isa.X5, isa.X10, 0) // data: fresh stream value (tainted while its load is shadowed)
		b.Addi(isa.X11, isa.X28, int64(u*5))
		b.Andi(isa.X11, isa.X11, 7)
		b.Slli(isa.X11, isa.X11, 3)
		b.Add(isa.X11, isa.X11, isa.X21)
		b.Ld(isa.X12, isa.X11, 0) // reload of the same slot
		b.Add(isa.X26, isa.X26, isa.X12)
	}

	// Streaming output store.
	if p.StoreEvery > 0 && u%p.StoreEvery == 0 {
		b.Andi(isa.X13, isa.X28, 1023)
		b.Slli(isa.X13, isa.X13, 3)
		b.Add(isa.X13, isa.X13, isa.X22)
		b.Sd(acc, isa.X13, int64(8*u))
	}

	// Independent ALU work: wide cores issue these in parallel.
	for k := 0; k < p.IndepALU; k++ {
		r := isa.Reg(uint8(isa.X6) + uint8(k%6))
		switch k % 4 {
		case 0:
			b.Addi(r, r, int64(1+k))
		case 1:
			b.Xori(r, r, 0x55)
		case 2:
			b.Slli(r, r, 1)
		case 3:
			b.Add(r, r, isa.X28)
		}
	}

	if p.MulEvery > 0 && u%p.MulEvery == 0 {
		b.Mul(isa.X14, acc, isa.X26)
		b.Add(acc, acc, isa.X14)
	}
	if p.DivEvery > 0 && u%p.DivEvery == 0 {
		b.Ori(isa.X15, isa.X28, 1) // non-zero divisor
		b.Div(isa.X14, acc, isa.X15)
		b.Xor(acc, acc, isa.X14)
	}
	if p.CallEvery > 0 && u%p.CallEvery == 0 {
		b.Call("leaf")
	}
}

func streamPtrReg(a int) isa.Reg {
	if a == 0 {
		return isa.X18
	}
	return isa.X19
}

func streamArrayBase(a, words int) uint64 {
	return streamBase + uint64(a)*uint64(words)*16
}

// splitMix is a SplitMix64 PRNG: deterministic workload data without
// math/rand's global state.
type splitMix struct{ s uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{s: seed} }

func (r *splitMix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// permutation returns a pseudo-random single-cycle permutation of [0,n),
// so a pointer chase visits every node (Sattolo's algorithm).
func permutation(n int, rng *splitMix) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	out := make([]int, n)
	for i := 0; i < n; i++ {
		out[idx[i]] = idx[(i+1)%n]
	}
	return out
}
