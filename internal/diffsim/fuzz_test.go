package diffsim

import (
	"testing"

	"repro/internal/core"
	"repro/internal/isa"
)

// FuzzDifferential is the native fuzz entry point for long campaigns
// (nightly CI runs `go test -fuzz=FuzzDifferential -fuzztime=10m`): the
// fuzzer mutates the (seed, mask) pair, and every input is a full
// differential-oracle check of all schemes.
func FuzzDifferential(f *testing.F) {
	f.Add(uint64(1), uint16(FeatAll))
	f.Add(uint64(7), uint16(FeatPointerChase|FeatStoreAlias))
	f.Add(uint64(1000), uint16(FeatIndirectLoad|FeatDataDepBranch|FeatCallReturn))
	f.Add(uint64(31337), uint16(FeatMulDiv|FeatIndirectCall))
	f.Fuzz(func(t *testing.T, seed uint64, mask uint16) {
		c := Case{Seed: seed, Mask: FeatureMask(mask) & FeatAll}
		if c.Mask == 0 {
			c.Mask = FeatAll
		}
		if err := CheckCase(ConfigForCase(c), core.SchemeKinds(), c); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzGenerator checks the generator's own contract fast (no core runs):
// every (seed, mask) yields a structurally valid program that terminates
// on the in-order reference.
func FuzzGenerator(f *testing.F) {
	f.Add(uint64(1), uint16(FeatAll))
	f.Add(uint64(424242), uint16(FeatStoreAlias))
	f.Fuzz(func(t *testing.T, seed uint64, mask uint16) {
		c := Case{Seed: seed, Mask: FeatureMask(mask) & FeatAll}
		if c.Mask == 0 {
			c.Mask = FeatAll
		}
		p := Generate(c)
		if err := p.Validate(); err != nil {
			t.Fatalf("case %v: %v", c, err)
		}
		if _, err := isa.NewArchSim(p).Run(maxRefInsts); err != nil {
			t.Fatalf("case %v: %v", c, err)
		}
	})
}
