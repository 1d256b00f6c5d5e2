package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/workloads"
)

var updateStreams = flag.Bool("update", false, "rewrite testdata/commit_streams.golden")

const (
	deepBudget  = 30_000 // the original representative cells
	suiteBudget = 8_000  // the full 22-proxy suite, reduced budget
)

// streamTier is one group of pinned cells: a (configuration × benchmark)
// slice hashed at a common cycle budget, for every registered scheme.
type streamTier struct {
	configs []Config
	benches []string
	budget  uint64
}

// streamTiers enumerates the pinned slice of the evaluation matrix. The
// first tier is the original deep-budget representatives (the narrowest
// and widest configurations, one memory-bound and one forwarding-heavy
// proxy) — its keys and enumeration order are preserved so those hashes
// stay byte-identical across golden extensions. The second tier pins the
// full 22-proxy suite on the same two configurations at a reduced budget,
// so every proxy's committed stream — and with it every workload
// behaviour knob — is hash-pinned for every scheme.
func streamTiers() []streamTier {
	var suite []string
	for _, p := range workloads.Suite() {
		suite = append(suite, p.Name)
	}
	edges := []Config{SmallConfig(), MegaConfig()}
	return []streamTier{
		{configs: edges, benches: []string{"505.mcf", "548.exchange2"}, budget: deepBudget},
		{configs: edges, benches: suite, budget: suiteBudget},
	}
}

// cellKey renders the golden-file key for one cell. The deep-budget tier
// keeps its historical key format; reduced-budget cells carry the budget
// as a suffix so the two tiers can pin the same benchmark independently.
func cellKey(cfg Config, kind SchemeKind, bench string, budget uint64) string {
	if budget == deepBudget {
		return fmt.Sprintf("%s/%s/%s", cfg.Name, kind, bench)
	}
	return fmt.Sprintf("%s/%s/%s@%d", cfg.Name, kind, bench, budget)
}

// hashedRun runs one cell for a cycle budget and hashes every committed
// instruction record, with an optional observer attached; it is shared
// with the observer tests so they hash the same record fields.
func hashedRun(t *testing.T, cfg Config, kind SchemeKind, bench string, budget uint64, obs Observer) (hash string, cycles uint64) {
	t.Helper()
	prof, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	c := MustNew(cfg, kind, prof.Build(1))
	c.Observer = obs
	h := sha256.New()
	c.CommitHook = func(rec isa.Commit) {
		fmt.Fprintf(h, "%d %v %d %d %v %d %d\n",
			rec.PC, rec.Inst, rec.Value, rec.Addr, rec.Taken, rec.Target, rec.Rd)
	}
	if _, err := c.Run(RunLimits{MaxCycles: budget}); err != nil {
		t.Fatalf("%s/%s/%s: %v", cfg.Name, kind, bench, err)
	}
	return hex.EncodeToString(h.Sum(nil)), c.Cycle()
}

// commitStreamHash is hashedRun without an observer (the golden cells).
func commitStreamHash(t *testing.T, cfg Config, kind SchemeKind, bench string, budget uint64) string {
	t.Helper()
	hash, _ := hashedRun(t, cfg, kind, bench, budget, nil)
	return hash
}

// TestCommittedStreamGolden pins the committed-instruction stream of each
// cell as a hash. This is the byte-identical oracle for scheduler and
// pipeline refactors: a perf-only change to the core must reproduce every
// hash exactly. An intentional model change regenerates the file with
// -update.
func TestCommittedStreamGolden(t *testing.T) {
	path := filepath.Join("testdata", "commit_streams.golden")
	tiers := streamTiers()

	if *updateStreams {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, tier := range tiers {
			for _, cfg := range tier.configs {
				for _, kind := range SchemeKinds() {
					for _, bench := range tier.benches {
						fmt.Fprintf(&b, "%s %s\n", cellKey(cfg, kind, bench, tier.budget),
							commitStreamHash(t, cfg, kind, bench, tier.budget))
					}
				}
			}
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 2 {
			want[fields[0]] = fields[1]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, tier := range tiers {
		for _, cfg := range tier.configs {
			for _, kind := range SchemeKinds() {
				for _, bench := range tier.benches {
					key := cellKey(cfg, kind, bench, tier.budget)
					cfg, kind, bench, budget := cfg, kind, bench, tier.budget
					t.Run(key, func(t *testing.T) {
						wantHash, ok := want[key]
						if !ok {
							t.Fatalf("no golden hash for %s (regenerate with -update)", key)
						}
						if got := commitStreamHash(t, cfg, kind, bench, budget); got != wantHash {
							t.Errorf("committed stream diverged: hash %s, want %s; if the model change is intentional, regenerate with -update", got, wantHash)
						}
					})
				}
			}
		}
	}
}
