package workloads

import "fmt"

// Suite returns the 22 SPEC CPU2017 proxies in the paper's Figure 6 order.
// Iteration counts are sized so every proxy outlasts the harness's cycle
// budgets; the harness measures a fixed cycle window, as the paper does on
// FireSim (Section 7).
func Suite() []Profile {
	return []Profile{
		{
			Name:      "500.perlbench",
			Character: "interpreter: branchy integer, hash-table indirection, calls, L2-size hot set",
			Iters:     200_000,
			GateEvery: 2, GateWords: 1 << 15, GateIndirect: true,
			StreamArrays: 1, StreamWords: 4096, ALUPerLoad: 2,
			IndirectLoads: 3, RandBranchBit: 3, BranchDepLoad: true,
			StoreEvery: 2, IndepALU: 3, CallEvery: 2,
		},
		{
			Name:      "502.gcc",
			Character: "compiler: pointer-chasing IR walks, unpredictable branches, calls",
			Iters:     200_000,
			GateEvery: 1, GateWords: 1 << 15, GateIndirect: true,
			StreamArrays: 1, StreamWords: 8192, ALUPerLoad: 1,
			IndirectLoads: 3, ChaseNodes: 512, ChaseStride: 64, ChasePerIter: 2, DepBranch: true,
			RandBranchBit: 5, BranchDepLoad: true, StoreEvery: 2, IndepALU: 3, CallEvery: 2,
		},
		{
			Name:         "503.bwaves",
			Character:    "FP blast-wave solver: streams well, wide independent work, few branches",
			Iters:        200_000,
			StreamArrays: 2, StreamWords: 65536, ALUPerLoad: 2,
			StoreEvery: 2, IndepALU: 8, MulEvery: 2,
		},
		{
			Name:      "505.mcf",
			Character: "network simplex: DRAM-bound pointer chasing, indirect loads, data-dependent branches",
			Iters:     200_000,
			GateEvery: 1, GateWords: 1 << 16, GateIndirect: true,
			IndirectLoads: 3, ChaseNodes: 512, ChaseStride: 64, ChasePerIter: 3,
			DepBranch: true, RandBranchBit: 4, BranchDepLoad: true, IndepALU: 4,
		},
		{
			Name:      "507.cactuBSSN",
			Character: "numerical relativity stencil: compute-dense chains off streamed loads",
			Iters:     200_000,
			LagBranch: true,
			GateEvery: 1, GateWords: 1 << 15,
			StreamArrays: 2, StreamWords: 16384, ALUPerLoad: 5,
			StoreEvery: 2, IndepALU: 4, MulEvery: 1,
		},
		{
			Name:         "508.namd",
			Character:    "molecular dynamics: high-ILP compute, small hot set, multiply-heavy",
			Iters:        200_000,
			StreamArrays: 1, StreamWords: 2048, ALUPerLoad: 3,
			IndepALU: 8, MulEvery: 1,
		},
		{
			Name:      "510.parest",
			Character: "FEM solver: streaming plus sparse indirection, moderate shadows",
			Iters:     200_000,
			GateEvery: 1, GateWords: 1 << 15,
			StreamArrays: 2, StreamWords: 16384, ALUPerLoad: 2,
			IndirectLoads: 2, StoreEvery: 2, IndepALU: 4, MulEvery: 2,
		},
		{
			Name:      "511.povray",
			Character: "ray tracer: compute with branchy traversal and calls, small footprint",
			Iters:     200_000,
			LagBranch: true,
			GateEvery: 1, GateWords: 1 << 14,
			StreamArrays: 1, StreamWords: 2048, ALUPerLoad: 4,
			RandBranchBit: 6, IndepALU: 4, MulEvery: 1, CallEvery: 2,
		},
		{
			Name:         "519.lbm",
			Character:    "lattice Boltzmann: store-heavy streaming stencil, prefetch-friendly",
			Iters:        200_000,
			LagBranch:    true,
			StreamArrays: 2, StreamWords: 32768, ALUPerLoad: 3,
			StoreEvery: 1, IndepALU: 5, MulEvery: 2,
		},
		{
			Name:      "520.omnetpp",
			Character: "discrete-event simulator: heap pointer chasing under missy branches, calls",
			Iters:     200_000,
			GateEvery: 1, GateWords: 1 << 16, GateIndirect: true,
			ChaseNodes: 512, ChaseStride: 64, ChasePerIter: 2, DepBranch: true,
			IndirectLoads: 2, RandBranchBit: 3, BranchDepLoad: true,
			StoreEvery: 2, IndepALU: 3, CallEvery: 2,
		},
		{
			Name:      "521.wrf",
			Character: "weather model: streaming FP with moderate compute chains",
			Iters:     200_000,
			LagBranch: true,
			GateEvery: 1, GateWords: 1 << 15,
			StreamArrays: 2, StreamWords: 16384, ALUPerLoad: 3,
			StoreEvery: 2, IndepALU: 5, MulEvery: 2,
		},
		{
			Name:      "523.xalancbmk",
			Character: "XML transform: tree walks with indirect loads and data-dependent branches",
			Iters:     200_000,
			GateEvery: 1, GateWords: 1 << 15, GateIndirect: true,
			StreamArrays: 1, StreamWords: 8192, ALUPerLoad: 1,
			IndirectLoads: 3, ChaseNodes: 512, ChaseStride: 64, ChasePerIter: 2,
			DepBranch: true, RandBranchBit: 4, BranchDepLoad: true, IndepALU: 2, CallEvery: 3,
		},
		{
			Name:         "525.x264",
			Character:    "video encoder: integer SIMD-like ILP over small blocks, few branches",
			Iters:        200_000,
			LagBranch:    true,
			StreamArrays: 2, StreamWords: 4096, ALUPerLoad: 2,
			StoreEvery: 1, IndepALU: 8, MulEvery: 2,
		},
		{
			Name:      "527.cam4",
			Character: "atmosphere model: streaming FP, moderate chains, some branches",
			Iters:     200_000,
			LagBranch: true,
			GateEvery: 1, GateWords: 1 << 15,
			StreamArrays: 2, StreamWords: 16384, ALUPerLoad: 3,
			RandBranchBit: 7, StoreEvery: 2, IndepALU: 4, MulEvery: 2,
		},
		{
			Name:      "531.deepsjeng",
			Character: "chess search: unpredictable data-dependent branches, table indirection",
			Iters:     200_000,
			GateEvery: 1, GateWords: 1 << 14, GateIndirect: true,
			StreamArrays: 1, StreamWords: 1024, ALUPerLoad: 1,
			IndirectLoads: 3, RandBranchBit: 2, BranchDepLoad: true, STLF: true,
			IndepALU: 3, CallEvery: 2,
		},
		{
			Name:      "538.imagick",
			Character: "image convolution: deep dependent ALU chains off L1-resident loads",
			Iters:     200_000,
			LagBranch: true,
			GateEvery: 1, GateWords: 1 << 15,
			StreamArrays: 2, StreamWords: 2048, ALUPerLoad: 7,
			StoreEvery: 2, IndepALU: 2, MulEvery: 1,
		},
		{
			Name:      "541.leela",
			Character: "go engine: branchy small-footprint search with store/reload traffic",
			Iters:     200_000,
			LagBranch: true,
			GateEvery: 2, GateWords: 1 << 14, GateIndirect: true,
			StreamArrays: 1, StreamWords: 2048, ALUPerLoad: 2,
			RandBranchBit: 3, BranchDepLoad: true, STLF: true, IndepALU: 3,
		},
		{
			Name:      "544.nab",
			Character: "molecular modeling: compute chains with multiplies, small streams",
			Iters:     200_000,
			LagBranch: true,
			GateEvery: 1, GateWords: 1 << 14,
			StreamArrays: 1, StreamWords: 4096, ALUPerLoad: 4,
			IndepALU: 6, MulEvery: 1,
		},
		{
			Name:      "548.exchange2",
			Character: "sudoku solver: tiny footprint, tainted store addresses vs untainted reloads (Section 9.2 anomaly)",
			Iters:     200_000,
			GateEvery: 2, GateWords: 1 << 13,
			StreamArrays: 1, StreamWords: 128, ALUPerLoad: 1,
			STLF: true, StoreEvery: 1, RandBranchBit: 9, IndepALU: 6, CallEvery: 3,
		},
		{
			Name:         "549.fotonik3d",
			Character:    "FDTD solver: streams well, prefetch-friendly, negligible shadows",
			Iters:        200_000,
			StreamArrays: 2, StreamWords: 32768, ALUPerLoad: 2,
			StoreEvery: 2, IndepALU: 7, MulEvery: 2,
		},
		{
			Name:         "554.roms",
			Character:    "ocean model: streaming FP, wide independent work, few branches",
			Iters:        200_000,
			StreamArrays: 2, StreamWords: 32768, ALUPerLoad: 2,
			StoreEvery: 2, IndepALU: 8, MulEvery: 2,
		},
		{
			Name:      "557.xz",
			Character: "compressor: data-dependent branches on loaded bytes, match-table indirection",
			Iters:     200_000,
			GateEvery: 1, GateWords: 1 << 15, GateIndirect: true,
			StreamArrays: 1, StreamWords: 8192, ALUPerLoad: 2,
			IndirectLoads: 3, RandBranchBit: 1, BranchDepLoad: true, STLF: true,
			StoreEvery: 2, IndepALU: 3,
		},
	}
}

// ByName returns the named proxy profile.
func ByName(name string) (Profile, error) {
	for _, p := range Suite() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// Gem5Comparable returns the suite minus namd, parest, and povray, which
// the paper could not run on gem5 (Section 7) and therefore excludes from
// BOOM-vs-gem5 comparisons.
func Gem5Comparable() []Profile {
	out := make([]Profile, 0, 19)
	for _, p := range Suite() {
		switch p.Name {
		case "508.namd", "510.parest", "511.povray":
			continue
		}
		out = append(out, p)
	}
	return out
}
