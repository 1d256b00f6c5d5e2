package harness

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
)

var errTestUnwritable = errors.New("test: cache unwritable")

// makeUnwritable renders dir unwritable for this process. chmod 0555 is
// enough for normal users; root (CI containers) bypasses permission bits,
// so there the directory is replaced by a regular file — CreateTemp then
// fails with ENOTDIR, the same warn-and-continue path.
func makeUnwritable(t *testing.T, dir string) {
	t.Helper()
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chmod(dir, 0o755) })
	if probe, err := os.CreateTemp(dir, "probe*"); err == nil {
		// Running as root: permission bits did not bite.
		probe.Close()
		os.Chmod(dir, 0o755)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReadOnlyCacheDirWarnsButCompletes: an unwritable cache directory
// must cost a warning per failed write — naming the cell key — and
// nothing else: the run completes with correct results and accurate
// simulation accounting.
func TestReadOnlyCacheDirWarnsButCompletes(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	disk, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	makeUnwritable(t, dir)

	var warnings []string
	opts := sessionOptions()
	opts.Progress = func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		if strings.Contains(line, "cell cache write") {
			warnings = append(warnings, line)
		}
	}
	s := NewSession(SessionConfig{Options: opts, Cache: disk})
	run, err := s.Run(context.Background(), core.MegaConfig(), core.KindBaseline, sessionBenches(t, "505.mcf")[0])
	if err != nil {
		t.Fatalf("run failed on unwritable cache dir: %v", err)
	}
	if run.IPC <= 0 || run.Cycles == 0 {
		t.Fatalf("implausible run off unwritable cache: %+v", run)
	}
	if len(warnings) == 0 {
		t.Fatal("no cell cache write warning surfaced")
	}
	key := CellKey(CellJob{Config: core.MegaConfig(), Scheme: core.KindBaseline, Bench: sessionBenches(t, "505.mcf")[0]}, opts)
	if !strings.Contains(warnings[0], key) {
		t.Fatalf("warning does not name the failed cell key %s: %q", key, warnings[0])
	}
	if st := s.Stats(); st.Simulated != 1 {
		t.Fatalf("accounting off on unwritable cache: %+v", st)
	}
}

// TestDiskCachePutWrapsErrors: every DiskCache.Put failure path must carry
// the cell key, so the engine's warning identifies the entry.
func TestDiskCachePutWrapsErrors(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	disk, err := NewDiskCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	makeUnwritable(t, dir)
	err = disk.Put("deadbeef", Run{Scheme: core.KindBaseline})
	if err == nil {
		t.Fatal("Put on unwritable dir succeeded")
	}
	if !strings.Contains(err.Error(), "deadbeef") || !strings.Contains(err.Error(), "cell cache write") {
		t.Fatalf("Put error lacks key context: %v", err)
	}
}
