package workloads

import (
	"testing"

	"repro/internal/isa"
)

func TestSuiteShape(t *testing.T) {
	s := Suite()
	if len(s) != 22 {
		t.Fatalf("suite has %d benchmarks, want 22", len(s))
	}
	seen := map[string]bool{}
	for _, p := range s {
		if seen[p.Name] {
			t.Errorf("duplicate benchmark %s", p.Name)
		}
		seen[p.Name] = true
		if p.Character == "" {
			t.Errorf("%s: missing character description", p.Name)
		}
		if p.Iters <= 0 {
			t.Errorf("%s: non-positive iteration count", p.Name)
		}
	}
}

func TestAllProxiesBuildAndValidate(t *testing.T) {
	for _, p := range Suite() {
		prog := p.Build(1)
		if err := prog.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
		if prog.Len() == 0 {
			t.Errorf("%s: empty program", p.Name)
		}
	}
}

// TestAllProxiesTerminate runs each proxy at a reduced scale on the
// architectural simulator, checking termination and measuring dynamic
// instruction counts.
func TestAllProxiesTerminate(t *testing.T) {
	for _, p := range Suite() {
		small := p
		small.Iters = 64
		prog := small.Build(1)
		sim := isa.NewArchSim(prog)
		n, err := sim.Run(5_000_000)
		if err != nil {
			t.Errorf("%s: %v", p.Name, err)
			continue
		}
		if n < 100 {
			t.Errorf("%s: only %d dynamic instructions", p.Name, n)
		}
	}
}

func TestProxiesAreDeterministic(t *testing.T) {
	p, err := ByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	a := p.Build(1)
	b := p.Build(1)
	if a.Len() != b.Len() {
		t.Fatalf("non-deterministic build: %d vs %d instructions", a.Len(), b.Len())
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs between builds", i)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("548.exchange2"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("999.nonesuch"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestGem5ComparableExclusions(t *testing.T) {
	g := Gem5Comparable()
	if len(g) != 19 {
		t.Fatalf("gem5-comparable suite has %d entries, want 19", len(g))
	}
	for _, p := range g {
		switch p.Name {
		case "508.namd", "510.parest", "511.povray":
			t.Errorf("%s must be excluded from the gem5 comparison", p.Name)
		}
	}
}

func TestScaleMultipliesIterations(t *testing.T) {
	p, _ := ByName("503.bwaves")
	p.Iters = 32
	s1 := isa.NewArchSim(p.Build(1))
	n1, err := s1.Run(10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	s2 := isa.NewArchSim(p.Build(2))
	n2, err := s2.Run(20_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if n2 < n1*3/2 {
		t.Errorf("scale 2 ran %d instructions vs %d at scale 1", n2, n1)
	}
}

func TestPermutationIsSingleCycle(t *testing.T) {
	rng := newSplitMix(42)
	for _, n := range []int{2, 8, 64, 1024} {
		perm := permutation(n, rng)
		seen := make([]bool, n)
		cur := 0
		for i := 0; i < n; i++ {
			if seen[cur] {
				t.Fatalf("n=%d: revisited node %d after %d hops", n, cur, i)
			}
			seen[cur] = true
			cur = perm[cur]
		}
		if cur != 0 {
			t.Errorf("n=%d: walk did not return to start", n)
		}
	}
}

func TestSplitMixDeterminism(t *testing.T) {
	a, b := newSplitMix(7), newSplitMix(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix not deterministic")
		}
	}
	if newSplitMix(7).next() == newSplitMix(8).next() {
		t.Error("different seeds gave identical first values")
	}
}
