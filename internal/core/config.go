package core

import (
	"fmt"

	"repro/internal/mem"
)

// Config parameterizes one core. The four named constructors mirror the
// paper's Table 1 BOOM configurations (Small/Medium/Large/Mega).
type Config struct {
	Name string

	// Width is the fetch, decode, rename, and commit width.
	Width int
	// IssueWidth is the maximum instructions selected for issue per cycle
	// (including store address/data partial issues and scheme-wasted slots).
	IssueWidth int
	// MemPorts is the number of parallel memory issues per cycle; it also
	// bounds the per-cycle non-speculative-load broadcast bandwidth
	// (Section 5.1 of the paper).
	MemPorts int

	ROBSize  int
	IQSize   int
	LQSize   int
	SQSize   int
	PhysRegs int
	// MaxBranches is the number of in-flight branch checkpoints.
	MaxBranches int

	// FrontendDelay is the fetch-to-rename depth in cycles; it sets the
	// branch misprediction redirect penalty.
	FrontendDelay uint64
	// FetchBufSize is the fetch buffer capacity in instructions.
	FetchBufSize int

	// ExecDelay is the issue-to-execute pipeline depth (register read and
	// wakeup/select pipelining): it delays architecturally visible events
	// (branch resolution, store address arrival at the LSU, cache access
	// start) without breaking back-to-back ALU bypass.
	ExecDelay uint64

	// Functional unit latencies.
	ALULat uint64
	MulLat uint64
	DivLat uint64 // fixed divider latency (non-pipelined unit)
	AGULat uint64
	FwdLat uint64 // store-to-load forwarding latency after the AGU

	// SpecWakeup enables speculative scheduling of load dependents assuming
	// an L1 hit. NDA removes this logic (Section 5.1).
	SpecWakeup bool

	// SplitStoreTaints is the Section 9.2 optimization for STT-Rename:
	// track separate address/data taints for stores so untainted address
	// generation can issue early. Off by default (the paper's design).
	SplitStoreTaints bool

	// BTBSize and RASDepth size the branch target buffer and the return
	// address stack; the direction predictor is a fixed TAGE-lite
	// (branch.NewDefaultTAGE).
	BTBSize  int
	RASDepth int

	Hier mem.HierarchyConfig
}

// Validate checks the configuration for structural sanity.
func (c Config) Validate() error {
	switch {
	case c.Width < 1 || c.Width > 8:
		return fmt.Errorf("core: %s: width %d out of range", c.Name, c.Width)
	case c.IssueWidth < 1:
		return fmt.Errorf("core: %s: issue width %d", c.Name, c.IssueWidth)
	case c.MemPorts < 1:
		return fmt.Errorf("core: %s: mem ports %d", c.Name, c.MemPorts)
	case c.ROBSize < 2*c.Width:
		return fmt.Errorf("core: %s: ROB %d too small for width %d", c.Name, c.ROBSize, c.Width)
	case c.IQSize < c.Width:
		return fmt.Errorf("core: %s: IQ %d too small", c.Name, c.IQSize)
	case c.LQSize < 1 || c.SQSize < 1:
		return fmt.Errorf("core: %s: LQ/SQ must be positive", c.Name)
	case c.PhysRegs < 34:
		return fmt.Errorf("core: %s: need at least 34 physical registers, have %d", c.Name, c.PhysRegs)
	case c.MaxBranches < 1:
		return fmt.Errorf("core: %s: need at least one branch checkpoint", c.Name)
	case c.FetchBufSize < c.Width:
		return fmt.Errorf("core: %s: fetch buffer smaller than width", c.Name)
	}
	return nil
}

func baseConfig(name string, width, memPorts, rob int) Config {
	return Config{
		Name:          name,
		Width:         width,
		IssueWidth:    width + 2,
		MemPorts:      memPorts,
		ROBSize:       rob,
		IQSize:        12 * width,
		LQSize:        8 * width,
		SQSize:        8 * width,
		PhysRegs:      32 + rob + 8,
		MaxBranches:   4 * width,
		FrontendDelay: 4,
		ExecDelay:     2,
		FetchBufSize:  4*width + 4,
		ALULat:        1,
		MulLat:        3,
		DivLat:        12,
		AGULat:        1,
		FwdLat:        1,
		SpecWakeup:    true,
		BTBSize:       512,
		RASDepth:      16,
		Hier:          mem.DefaultHierarchyConfig(),
	}
}

// SmallConfig is the 1-wide BOOM (Table 1: width 1, 1 memory port, 32 ROB
// entries; baseline SPEC2017 IPC 0.46 in the paper).
func SmallConfig() Config { return baseConfig("small", 1, 1, 32) }

// MediumConfig is the 2-wide BOOM (Table 1: width 2, 1 memory port, 64 ROB
// entries; baseline IPC 0.60).
func MediumConfig() Config { return baseConfig("medium", 2, 1, 64) }

// LargeConfig is the 3-wide BOOM (Table 1: width 3, 1 memory port, 96 ROB
// entries; baseline IPC 0.943).
func LargeConfig() Config { return baseConfig("large", 3, 1, 96) }

// MegaConfig is the 4-wide BOOM (Table 1: width 4, 2 memory ports, 128 ROB
// entries; baseline IPC 1.27). It is the paper's default configuration.
func MegaConfig() Config { return baseConfig("mega", 4, 2, 128) }

// Configs returns the four Table 1 configurations in ascending width order.
func Configs() []Config {
	return []Config{SmallConfig(), MediumConfig(), LargeConfig(), MegaConfig()}
}

// Gem5STTConfig approximates the configuration of the original STT paper's
// gem5 evaluation (Section 8.6 / Table 5 footnote 3): a wide core with an
// idealized single-cycle L1, which the paper shows reaches a Mega-class
// baseline IPC.
func Gem5STTConfig() Config {
	c := baseConfig("gem5-stt", 4, 2, 192)
	c.IQSize = 48
	c.LQSize = 32
	c.SQSize = 32
	c.MaxBranches = 20
	c.Hier = mem.Gem5HierarchyConfig()
	return c
}

// Gem5NDAConfig approximates the original NDA paper's gem5 configuration
// (Table 5 footnote 4): a mid-sized core whose baseline IPC the paper finds
// lands between the Medium and Large BOOM.
func Gem5NDAConfig() Config {
	c := baseConfig("gem5-nda", 2, 1, 80)
	c.IQSize = 24
	c.Hier = mem.Gem5HierarchyConfig()
	return c
}

// ConfigByName returns a named configuration, matching the Table 1 names.
func ConfigByName(name string) (Config, error) {
	switch name {
	case "small":
		return SmallConfig(), nil
	case "medium":
		return MediumConfig(), nil
	case "large":
		return LargeConfig(), nil
	case "mega":
		return MegaConfig(), nil
	case "gem5-stt":
		return Gem5STTConfig(), nil
	case "gem5-nda":
		return Gem5NDAConfig(), nil
	}
	return Config{}, fmt.Errorf("core: unknown config %q", name)
}
