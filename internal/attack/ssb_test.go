package attack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

func TestSSBProgramArchitecture(t *testing.T) {
	p := ssbProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Architecturally the reload must observe the overwrite: x6 = 0.
	sim := isa.NewArchSim(p)
	if _, err := sim.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if got := sim.Reg(isa.X6); got != 0 {
		t.Errorf("oracle reload = %d, want 0 (store must architecturally win)", got)
	}
	if got := sim.Mem(ssbBufAddr); got != 0 {
		t.Errorf("slot = %d after run, want 0", got)
	}
}

func TestSSBBaselineLeaks(t *testing.T) {
	r, err := RunSpectreSSB(core.MegaConfig(), core.KindBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Leaked {
		t.Fatal("baseline did not leak via store bypass; the D-shadow attack vector is inert")
	}
	if r.GuessedSecret != SSBSecret&63 {
		t.Errorf("recovered %d (hot %v), want %d", r.GuessedSecret, r.HotSlots, SSBSecret&63)
	}
}

// TestSSBSchemesBlock is roster-driven like TestSchemesBlockLeak: every
// secure scheme must block the store-bypass channel, so a new roster row
// is attack-tested the moment it is added.
func TestSSBSchemesBlock(t *testing.T) {
	for _, kind := range core.SecureSchemeKinds() {
		r, err := RunSpectreSSB(core.MegaConfig(), kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.Leaked {
			t.Errorf("%s: SSB SECRET LEAKED (hot %v)", kind, r.HotSlots)
		}
	}
}

func TestSSBAcrossConfigs(t *testing.T) {
	for _, cfg := range core.Configs() {
		for _, kind := range core.SchemeKinds() {
			r, err := RunSpectreSSB(cfg, kind)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, kind, err)
			}
			leakWanted := kind == core.KindBaseline
			if r.Leaked != leakWanted {
				t.Errorf("%s/%s: leaked=%v, want %v (hot %v)", cfg.Name, kind, r.Leaked, leakWanted, r.HotSlots)
			}
		}
	}
}
