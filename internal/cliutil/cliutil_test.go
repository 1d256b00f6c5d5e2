package cliutil

import (
	"context"
	"flag"
	"path/filepath"
	"strings"
	"testing"

	sb "repro"
)

func TestRegisterAndSchemes(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, "")
	if err := fs.Parse([]string{"-j", "4", "-schemes", "nda", "-cache", "/tmp/x"}); err != nil {
		t.Fatal(err)
	}
	if f.Parallelism != 4 || f.SchemesCSV != "nda" || f.CacheDir != "/tmp/x" {
		t.Errorf("parsed flags = %+v", f)
	}
	schemes, err := f.Schemes(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(schemes) != 2 || schemes[0] != sb.Baseline || schemes[1] != sb.NDA {
		t.Errorf("Schemes(true) = %v, want [baseline nda]", schemes)
	}
	schemes, err = f.Schemes(false)
	if err != nil || len(schemes) != 1 || schemes[0] != sb.NDA {
		t.Errorf("Schemes(false) = %v, %v, want [nda]", schemes, err)
	}
	f.SchemesCSV = "bogus"
	if _, err := f.Schemes(false); err == nil {
		t.Error("bogus scheme filter accepted")
	}
}

// sweepMatrix materializes a tiny one-bench sweep for the given schemes.
func sweepMatrix(t *testing.T, schemes []sb.Scheme) *sb.Matrix {
	t.Helper()
	prof, err := sb.BenchmarkByName("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	opts := sb.DefaultOptions()
	opts.WarmupCycles, opts.MeasureCycles = 500, 1500
	sess := sb.NewSession(sb.SessionConfig{Options: opts, Schemes: schemes})
	m, err := sess.Matrix(context.Background(), sb.MatrixSpec{
		Name:    "cliutil-test",
		Configs: []sb.Config{sb.MegaConfig()},
		Benches: []sb.Benchmark{prof},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestTraceDeltaLines pins the sweep trace-delta rendering: a comparison
// line per scheme when the baseline cell exists, and an explanatory note
// — never silence — when it does not.
func TestTraceDeltaLines(t *testing.T) {
	cfgName := sb.MegaConfig().Name
	schemes := []sb.Scheme{sb.Baseline, sb.NDA, sb.DoM}
	m := sweepMatrix(t, schemes)
	lines := TraceDeltaLines(m, cfgName, schemes)
	if len(lines) != 2 {
		t.Fatalf("got %d delta lines, want 2: %v", len(lines), lines)
	}
	if !strings.Contains(lines[0], "nda vs baseline") || !strings.Contains(lines[1], "dom vs baseline") {
		t.Errorf("unexpected delta lines: %v", lines)
	}

	// Baseline missing from the sweep: one explanatory note, not silence.
	noBase := []sb.Scheme{sb.NDA}
	lines = TraceDeltaLines(sweepMatrix(t, noBase), cfgName, noBase)
	if len(lines) != 1 || !strings.Contains(lines[0], "no baseline cell") {
		t.Errorf("missing-baseline sweep rendered %v, want one explanatory note", lines)
	}

	// A scheme cell missing from the matrix gets a note too.
	base := []sb.Scheme{sb.Baseline}
	lines = TraceDeltaLines(sweepMatrix(t, base), cfgName, []sb.Scheme{sb.Baseline, sb.DoM})
	if len(lines) != 1 || !strings.Contains(lines[0], "scheme cell missing") {
		t.Errorf("missing-scheme sweep rendered %v, want one explanatory note", lines)
	}
}

func TestOpenCache(t *testing.T) {
	f := &Flags{}
	c, err := f.OpenCache()
	if err != nil || c != nil {
		t.Errorf("no -cache: got %v, %v; want nil cache", c, err)
	}
	f.CacheDir = filepath.Join(t.TempDir(), "cells")
	c, err = f.OpenCache()
	if err != nil || c == nil {
		t.Errorf("-cache: got %v, %v; want a cache", c, err)
	}
}
