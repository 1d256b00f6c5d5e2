package core

import "testing"

// TestConfigFingerprint: the fingerprint must be deterministic, equal for
// equal configurations, and sensitive to every knob — it keys the
// harness's persisted cell results.
func TestConfigFingerprint(t *testing.T) {
	if SimVersion == "" {
		t.Fatal("SimVersion must be non-empty")
	}
	a, b := MegaConfig(), MegaConfig()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal configs must have equal fingerprints")
	}
	mutations := map[string]func(*Config){
		"width":    func(c *Config) { c.Width++ },
		"name":     func(c *Config) { c.Name = "mega2" },
		"div lat":  func(c *Config) { c.DivLat++ },
		"l1 hit":   func(c *Config) { c.Hier.L1D.HitLat++ },
		"split st": func(c *Config) { c.SplitStoreTaints = true },
	}
	for name, mutate := range mutations {
		c := MegaConfig()
		mutate(&c)
		if c.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: mutated config kept the same fingerprint", name)
		}
	}
}
