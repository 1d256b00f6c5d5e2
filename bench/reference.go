package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	sb "repro"
)

// referenceJSON holds the expected table1 output per simulator version.
// Regenerate it with -update after a deliberate model change.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// reference is what every table1 pass must reproduce exactly: the digest of
// the rendered table and the simulated totals behind it. Simulated
// statistics are exact outputs of a deterministic model, not performance
// numbers.
type reference struct {
	Table1SHA256 string `json:"table1_sha256"`
	Cells        int    `json:"cells"`
	SimCycles    uint64 `json:"sim_cycles"` // warm-up included
	Insts        uint64 `json:"insts"`      // measured windows only
}

// loadReference returns the entry for a simulator version.
func loadReference(version string) (reference, error) {
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		return reference{}, err
	}
	ref, ok := refs[version]
	if !ok {
		return reference{}, fmt.Errorf("testdata/reference.json has no entry for simulator version %q; regenerate it with -update", version)
	}
	return ref, nil
}

func parseReferences(data []byte) (map[string]reference, error) {
	refs := make(map[string]reference)
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("testdata/reference.json: %w", err)
	}
	return refs, nil
}

// table1Summary reduces a session's rendered table1 to its reference form.
// The session has already materialized the Boom matrix, so reading it back
// costs no cell resolution.
func table1Summary(ctx context.Context, s *sb.Session, text string) (reference, error) {
	m, err := s.Matrix(ctx, sb.BoomSpec())
	if err != nil {
		return reference{}, err
	}
	sum := sha256.Sum256([]byte(text))
	ref := reference{Table1SHA256: hex.EncodeToString(sum[:]), SimCycles: m.TotalSimCycles()}
	for _, cfg := range m.Configs {
		for _, k := range m.Schemes {
			c, ok := m.Cell(cfg.Name, k)
			if !ok {
				return reference{}, fmt.Errorf("table1 matrix lacks %s/%s", cfg.Name, k)
			}
			for _, r := range c.Runs {
				ref.Cells++
				ref.Insts += r.Insts
			}
		}
	}
	return ref, nil
}

// table1 renders table1 through a fresh session over cache: one
// user-visible `shadowbinding -experiment table1` operation.
func table1(ctx context.Context, cache sb.CellCache) (string, *sb.Session, error) {
	s := sb.NewSession(sb.SessionConfig{Options: options(), Cache: cache})
	text, err := s.Experiment(ctx, "table1")
	return text, s, err
}

// updateReference simulates table1 cold and records its reference entry
// for the current simulator version, keeping the other versions' entries.
func updateReference(ctx context.Context) error {
	cache, err := sb.OpenCache(sb.CacheOptions{})
	if err != nil {
		return err
	}
	text, s, err := table1(ctx, cache)
	if err != nil {
		return err
	}
	ref, err := table1Summary(ctx, s, text)
	if err != nil {
		return err
	}
	refs, err := parseReferences(referenceJSON)
	if err != nil {
		return err
	}
	refs[sb.SimVersion] = ref
	data, err := json.MarshalIndent(refs, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(benchDir(), "testdata", "reference.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "shadowbench: wrote %s entry for %s\n", path, sb.SimVersion)
	return nil
}

// fillStore is the warm workload's set-up, run as a child process the way
// a user's first `shadowbinding -cache DIR` run fills the store: table1
// simulated cold into a fresh on-disk store, checked against the
// reference.
func fillStore(ctx context.Context, dir string) error {
	ref, err := loadReference(sb.SimVersion)
	if err != nil {
		return err
	}
	cache, err := sb.OpenCache(sb.CacheOptions{Dir: dir})
	if err != nil {
		return err
	}
	text, s, err := table1(ctx, cache)
	if err != nil {
		return err
	}
	got, err := table1Summary(ctx, s, text)
	if err != nil {
		return err
	}
	if got != ref {
		return fmt.Errorf("fill: table1 differs from the reference: got %+v, want %+v", got, ref)
	}
	return nil
}
