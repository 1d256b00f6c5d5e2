package harness

import (
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Matrix assembly. Every simulation is hermetic (each cell runs on a core
// Reset as New builds one, over a read-only program; workloads use a
// seeded PRNG, not global state) and aggregation happens in enumeration
// order, so Matrix contents — and therefore every figure rendered from
// them — are bit-for-bit identical at any Parallelism setting and at any
// cache temperature.

// assembleMatrix aggregates per-cell runs (in enumeration order: config-
// major, then scheme, then benchmark — the order enumerateJobs produces)
// into a Matrix, exactly as the sequential sweep did, so cell contents and
// summary output are schedule-independent. Each cell's Runs is a
// capacity-limited window of runs, not a copy, and one pair of buffers
// carries every cell's cycles and instructions to stats.MeanIPC.
func assembleMatrix(configs []core.Config, schemes []core.SchemeKind, benches []workloads.Profile, runs []Run, opts Options) *Matrix {
	nb, ns := len(benches), len(schemes)
	m := &Matrix{
		Configs: configs,
		Schemes: schemes,
		Benches: benches,
		cells:   make(map[string]map[core.SchemeKind]*Cell, len(configs)),
	}
	cycles, insts := make([]uint64, nb), make([]uint64, nb)
	for ci, cfg := range configs {
		m.cells[cfg.Name] = make(map[core.SchemeKind]*Cell, ns)
		for si, kind := range schemes {
			lo := (ci*ns + si) * nb
			cell := &Cell{Config: cfg, Scheme: kind, Runs: runs[lo : lo+nb : lo+nb]}
			for bi := range cell.Runs {
				cycles[bi], insts[bi] = cell.Runs[bi].Cycles, cell.Runs[bi].Insts
			}
			cell.MeanIPC = stats.MeanIPC(cycles, insts)
			m.cells[cfg.Name][kind] = cell
			opts.logf("harness: %-8s %-11s mean IPC %.4f", cfg.Name, kind, cell.MeanIPC)
		}
	}
	return m
}
