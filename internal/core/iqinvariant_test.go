package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/diffsim"
	"repro/internal/workloads"
)

// stepChecked steps c until it halts or reaches maxCycles, checking the
// issue queue's invariants after every Step.
func stepChecked(t *testing.T, c *core.Core, maxCycles uint64, what string) {
	t.Helper()
	for !c.Halted() && c.Cycle() < maxCycles {
		c.Step()
		if err := core.CheckIssueQueueForTest(c); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// TestIssueQueueInvariantsCorpus holds the issue stage's ready set and
// wake-ups to a brute-force scan of the issue queue after every Step of
// every scheme on the 208-case differential corpus (every eighth case
// under -short).
func TestIssueQueueInvariantsCorpus(t *testing.T) {
	stride := 1
	if testing.Short() {
		stride = 8
	}
	for i := 0; i < 208; i += stride {
		cs := diffsim.CaseForIndex(1, i)
		cfg := diffsim.ConfigForCase(cs)
		prog := diffsim.Generate(cs)
		for _, kind := range core.SchemeKinds() {
			c := core.MustNew(cfg, kind, prog)
			stepChecked(t, c, 200_000, cs.String()+"/"+cfg.Name+"/"+kind.String())
			if !c.Halted() {
				t.Fatalf("%v/%s/%s: did not halt", cs, cfg.Name, kind)
			}
		}
	}
}

// TestIssueQueueInvariantsProxies does the same on every benchmark proxy,
// on the narrowest and the widest Table 1 core, under every scheme.
func TestIssueQueueInvariantsProxies(t *testing.T) {
	cycles := uint64(6_000)
	if testing.Short() {
		cycles = 1_500
	}
	for _, prof := range workloads.Suite() {
		prog := prof.Build(1)
		for _, cfg := range []core.Config{core.SmallConfig(), core.MegaConfig()} {
			for _, kind := range core.SchemeKinds() {
				stepChecked(t, core.MustNew(cfg, kind, prog), cycles, prof.Name+"/"+cfg.Name+"/"+kind.String())
			}
		}
	}
}
