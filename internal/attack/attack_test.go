package attack

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

func TestVictimProgramBuilds(t *testing.T) {
	p := victimProgram()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Architecturally the gadget must never read the secret: the oracle
	// takes the bounds-check exit on the malicious call.
	sim := isa.NewArchSim(p)
	if _, err := sim.Run(100_000); err != nil {
		t.Fatal(err)
	}
	// x7 would hold array1[x]&63 had the body executed; on the final
	// (malicious) call the branch is architecturally taken, so x7 retains
	// the last training value (< 8, never the secret slot).
	if got := sim.Reg(isa.X7); got == SecretValue&63 {
		t.Errorf("oracle architecturally read the secret: x7 = %d", got)
	}
}

// TestBaselineLeaks is the positive control: without a secure scheme the
// transient transmitter load must leave the secret-indexed line resident.
func TestBaselineLeaks(t *testing.T) {
	r, err := RunSpectreV1(core.MegaConfig(), core.KindBaseline)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Leaked {
		t.Fatal("baseline did not leak: the attack vector is inert, so scheme verdicts are meaningless")
	}
	if r.GuessedSecret != SecretValue&63 {
		t.Errorf("recovered %d (hot slots %v), want %d", r.GuessedSecret, r.HotSlots, SecretValue&63)
	}
}

// TestSchemesBlockLeak verifies the paper's Section 7 claim over the
// scheme roster: every secure scheme — the paper's STT-Rename, STT-Issue,
// and NDA, plus DoM and InvisiSpec — must block Spectre v1. A roster row
// with its secure flag set is a promise this test enforces automatically.
func TestSchemesBlockLeak(t *testing.T) {
	kinds := core.SecureSchemeKinds()
	if len(kinds) < 3 {
		t.Fatalf("only %d secure schemes registered, expected at least the paper's three", len(kinds))
	}
	for _, kind := range kinds {
		r, err := RunSpectreV1(core.MegaConfig(), kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if r.Leaked {
			t.Errorf("%s: SECRET LEAKED (hot slots %v)", kind, r.HotSlots)
		}
	}
}

// TestAttackAcrossConfigs runs the full verdict matrix on every Table 1
// configuration: the baseline must leak and every scheme must block, at
// every width.
func TestAttackAcrossConfigs(t *testing.T) {
	for _, cfg := range core.Configs() {
		results, err := RunAll(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		for _, r := range results {
			leakWanted := r.Scheme == core.KindBaseline
			if r.Leaked != leakWanted {
				t.Errorf("%s/%s: leaked=%v, want %v (hot %v)", cfg.Name, r.Scheme, r.Leaked, leakWanted, r.HotSlots)
			}
		}
	}
}

// TestSplitStoreTaintsStillSecure: the Section 9.2 store-taint optimization
// must not reopen the channel.
func TestSplitStoreTaintsStillSecure(t *testing.T) {
	cfg := core.MegaConfig()
	cfg.SplitStoreTaints = true
	r, err := RunSpectreV1(cfg, core.KindSTTRename)
	if err != nil {
		t.Fatal(err)
	}
	if r.Leaked {
		t.Errorf("split store taints leaked (hot %v)", r.HotSlots)
	}
}
