package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Config parameterizes one core. It carries only what the paper's
// configurations vary: width, memory ports and ROB size (Table 1), the
// checkpoint count and idealized memory system of the two gem5 comparison
// points (Sections 8.6 and 9.5), and the two ablation switches. Every
// other structure is a fixed constant of the pipeline or a size derived
// from Width or ROBSize.
type Config struct {
	Name string

	// Width is the fetch, decode, rename, and commit width.
	Width int
	// MemPorts is the number of parallel memory issues per cycle; it also
	// bounds the per-cycle non-speculative-load broadcast bandwidth
	// (Section 5.1 of the paper).
	MemPorts int
	ROBSize  int
	// MaxBranches is the number of in-flight branch checkpoints.
	MaxBranches int

	// SpecWakeup enables speculative scheduling of load dependents assuming
	// an L1 hit. NDA removes this logic (Section 5.1).
	SpecWakeup bool

	// SplitStoreTaints is the Section 9.2 optimization for STT-Rename:
	// track separate address/data taints for stores so untainted address
	// generation can issue early. Off by default (the paper's design).
	SplitStoreTaints bool

	// Gem5Memory selects the idealized memory system of earlier gem5
	// evaluations (mem.Gem5HierarchyConfig) instead of the BOOM-like one
	// (mem.DefaultHierarchyConfig).
	Gem5Memory bool
}

// The pipeline's fixed parameters: one value in every configuration.
const (
	// frontendDelay is the fetch-to-rename depth in cycles; it sets the
	// branch misprediction redirect penalty.
	frontendDelay = 4
	// execDelay is the issue-to-execute pipeline depth (register read and
	// wakeup/select pipelining): it delays architecturally visible events
	// (branch resolution, store address arrival at the LSU, cache access
	// start) without breaking back-to-back ALU bypass.
	execDelay = 2

	// Functional unit latencies.
	aluLat = 1
	mulLat = 3
	divLat = 12 // fixed divider latency (non-pipelined unit)
	aguLat = 1
	fwdLat = 1 // store-to-load forwarding latency after the AGU

	// btbSize and rasDepth size the branch target buffer and the return
	// address stack; the direction predictor is a fixed TAGE-lite
	// (branch.NewDefaultTAGE).
	btbSize  = 512
	rasDepth = 16
)

// The derived sizes: the issue width (Width plus the store address and
// data partial-issue slots), the issue, load and store queues, the
// physical registers (the architectural ones, one rename target per ROB
// entry, and eight spare) and the fetch buffer.
func (c Config) IssueWidth() int   { return c.Width + 2 }
func (c Config) IQSize() int       { return 12 * c.Width }
func (c Config) LQSize() int       { return 8 * c.Width }
func (c Config) SQSize() int       { return 8 * c.Width }
func (c Config) PhysRegs() int     { return isa.NumRegs + c.ROBSize + 8 }
func (c Config) fetchBufSize() int { return 4*c.Width + 4 }

// hierarchy returns the memory system the configuration selects.
func (c Config) hierarchy() mem.HierarchyConfig {
	if c.Gem5Memory {
		return mem.Gem5HierarchyConfig()
	}
	return mem.DefaultHierarchyConfig()
}

// Validate checks the configuration's bounds: Width in [1,8], MemPorts in
// [1,Width], ROBSize in [2·Width,512] (4× Mega's) and MaxBranches in
// [1,64]. Configurations arrive over the network (the farm's experiment
// route), so every field is bounded from both sides and any configuration
// Validate accepts builds a core: Width bounds every derived size but
// PhysRegs, which ROBSize bounds. The bounds admit every row of the table
// and the memory-port ablation's 1, 2 and 4 ports on Mega.
func (c Config) Validate() error {
	switch {
	case c.Width < 1 || c.Width > 8:
		return fmt.Errorf("core: %s: width %d out of range [1,8]", c.Name, c.Width)
	case c.MemPorts < 1 || c.MemPorts > c.Width:
		return fmt.Errorf("core: %s: mem ports %d out of range [1,%d]", c.Name, c.MemPorts, c.Width)
	case c.ROBSize < 2*c.Width || c.ROBSize > 512:
		return fmt.Errorf("core: %s: ROB %d out of range [%d,512]", c.Name, c.ROBSize, 2*c.Width)
	case c.MaxBranches < 1 || c.MaxBranches > 64:
		return fmt.Errorf("core: %s: branch checkpoints %d out of range [1,64]", c.Name, c.MaxBranches)
	}
	return nil
}

// Row indices into configs.
const (
	cfgSmall = iota
	cfgMedium
	cfgLarge
	cfgMega
	cfgGem5STT
	cfgGem5NDA
)

// configs is the fixed set of configurations: the four Table 1 BOOMs in
// ascending width order, then the two gem5 comparison points.
var configs = [...]Config{
	cfgSmall:   {Name: "small", Width: 1, MemPorts: 1, ROBSize: 32, MaxBranches: 4, SpecWakeup: true},
	cfgMedium:  {Name: "medium", Width: 2, MemPorts: 1, ROBSize: 64, MaxBranches: 8, SpecWakeup: true},
	cfgLarge:   {Name: "large", Width: 3, MemPorts: 1, ROBSize: 96, MaxBranches: 12, SpecWakeup: true},
	cfgMega:    {Name: "mega", Width: 4, MemPorts: 2, ROBSize: 128, MaxBranches: 16, SpecWakeup: true},
	cfgGem5STT: {Name: "gem5-stt", Width: 4, MemPorts: 2, ROBSize: 192, MaxBranches: 20, SpecWakeup: true, Gem5Memory: true},
	cfgGem5NDA: {Name: "gem5-nda", Width: 2, MemPorts: 1, ROBSize: 80, MaxBranches: 8, SpecWakeup: true, Gem5Memory: true},
}

// SmallConfig is the 1-wide BOOM (Table 1: width 1, 1 memory port, 32 ROB
// entries; baseline SPEC2017 IPC 0.46 in the paper).
func SmallConfig() Config { return configs[cfgSmall] }

// MediumConfig is the 2-wide BOOM (Table 1: width 2, 1 memory port, 64 ROB
// entries; baseline IPC 0.60).
func MediumConfig() Config { return configs[cfgMedium] }

// LargeConfig is the 3-wide BOOM (Table 1: width 3, 1 memory port, 96 ROB
// entries; baseline IPC 0.943).
func LargeConfig() Config { return configs[cfgLarge] }

// MegaConfig is the 4-wide BOOM (Table 1: width 4, 2 memory ports, 128 ROB
// entries; baseline IPC 1.27). It is the paper's default configuration.
func MegaConfig() Config { return configs[cfgMega] }

// Configs returns the four Table 1 configurations in ascending width order.
func Configs() []Config {
	return append([]Config(nil), configs[:cfgGem5STT]...)
}

// Gem5STTConfig approximates the configuration of the original STT paper's
// gem5 evaluation (Section 8.6 / Table 5 footnote 3): a wide core with an
// idealized single-cycle L1, which the paper shows reaches a Mega-class
// baseline IPC.
func Gem5STTConfig() Config { return configs[cfgGem5STT] }

// Gem5NDAConfig approximates the original NDA paper's gem5 configuration
// (Table 5 footnote 4): a mid-sized core whose baseline IPC the paper finds
// lands between the Medium and Large BOOM.
func Gem5NDAConfig() Config { return configs[cfgGem5NDA] }

// ConfigByName returns a named configuration, matching the Table 1 names.
func ConfigByName(name string) (Config, error) {
	for _, c := range configs {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("core: unknown config %q", name)
}
