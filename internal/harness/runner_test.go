package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

// runnerSuite is a 3-benchmark slice: enough jobs (cfgs × 4 schemes × 3)
// to exercise real interleaving without slowing the race-detector runs.
func runnerSuite(t *testing.T) []workloads.Profile {
	t.Helper()
	var out []workloads.Profile
	for _, name := range []string{"503.bwaves", "531.deepsjeng", "505.mcf"} {
		p, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// sweep materializes one (configs × schemes × benches) matrix through a
// fresh session, so every call simulates every cell.
func sweep(ctx context.Context, configs []core.Config, schemes []core.SchemeKind, benches []workloads.Profile, opts Options) (*Matrix, error) {
	s := NewSession(SessionConfig{Options: opts, Schemes: schemes})
	return s.Matrix(ctx, MatrixSpec{Name: "sweep", Configs: configs, Benches: benches})
}

func runnerOptions(parallelism int) Options {
	o := DefaultOptions()
	o.WarmupCycles = 2_000
	o.MeasureCycles = 8_000
	o.Parallelism = parallelism
	return o
}

// TestRunMatrixParallelDeterministic is the engine's core guarantee: a
// parallel sweep produces byte-identical figures and identical matrix
// contents to a sequential one.
func TestRunMatrixParallelDeterministic(t *testing.T) {
	configs := []core.Config{core.SmallConfig(), core.MegaConfig()}
	suite := runnerSuite(t)

	seq, err := sweep(context.Background(), configs, core.SchemeKinds(), suite, runnerOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := sweep(context.Background(), configs, core.SchemeKinds(), suite, runnerOptions(8))
	if err != nil {
		t.Fatal(err)
	}

	for _, fig := range []struct{ name, a, b string }{
		{"Figure6", Figure6(seq), Figure6(par)},
		{"Figure7", Figure7(seq), Figure7(par)},
		{"Table1", Table1(seq), Table1(par)},
		{"Table3", Table3(seq), Table3(par)},
	} {
		if fig.a != fig.b {
			t.Errorf("%s differs between sequential and parallel runs:\n--- seq ---\n%s\n--- par ---\n%s",
				fig.name, fig.a, fig.b)
		}
	}
	for _, cfg := range configs {
		for _, kind := range core.SchemeKinds() {
			cs, ok1 := seq.Cell(cfg.Name, kind)
			cp, ok2 := par.Cell(cfg.Name, kind)
			if !ok1 || !ok2 {
				t.Fatalf("%s/%s: missing cell (seq %v, par %v)", cfg.Name, kind, ok1, ok2)
			}
			if cs.MeanIPC != cp.MeanIPC {
				t.Errorf("%s/%s: MeanIPC %v (seq) != %v (par)", cfg.Name, kind, cs.MeanIPC, cp.MeanIPC)
			}
			if len(cs.Runs) != len(cp.Runs) {
				t.Fatalf("%s/%s: run counts differ", cfg.Name, kind)
			}
			for i := range cs.Runs {
				if cs.Runs[i] != cp.Runs[i] {
					t.Errorf("%s/%s run %d differs:\nseq %+v\npar %+v", cfg.Name, kind, i, cs.Runs[i], cp.Runs[i])
				}
			}
		}
	}
}

// TestRunMatrixProgressIsOrderedAndComplete: per-cell summary lines are
// emitted in enumeration order regardless of scheduling, and the per-job
// lines cover every cell exactly once.
func TestRunMatrixProgressIsOrderedAndComplete(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	opts := runnerOptions(8)
	opts.Progress = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	suite := runnerSuite(t)
	if _, err := sweep(context.Background(), []core.Config{core.MegaConfig()}, core.SchemeKinds(), suite, opts); err != nil {
		t.Fatal(err)
	}
	var jobLines, cellLines []string
	for _, l := range lines {
		if strings.Contains(l, "mean IPC") {
			cellLines = append(cellLines, l)
		} else {
			jobLines = append(jobLines, l)
		}
	}
	ns := len(core.SchemeKinds())
	if want := ns * len(suite); len(jobLines) != want {
		t.Errorf("job progress lines = %d, want %d", len(jobLines), want)
	}
	if len(cellLines) != ns {
		t.Fatalf("cell summary lines = %d, want %d", len(cellLines), ns)
	}
	for i, kind := range core.SchemeKinds() {
		if !strings.Contains(cellLines[i], kind.String()) {
			t.Errorf("cell summary %d = %q, want scheme %s (enumeration order)", i, cellLines[i], kind)
		}
	}
}

// TestRunMatrixCancellation: a cancelled context aborts the sweep and
// reports the context's error, not a partial matrix.
func TestRunMatrixCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the sweep starts
	m, err := sweep(ctx, []core.Config{core.MegaConfig()},
		core.SchemeKinds(), runnerSuite(t), runnerOptions(4))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Error("cancelled sweep must not return a matrix")
	}
}

// TestRunMatrixMidSweepCancellation cancels from a progress callback once
// the first job completes; the sweep must stop early and report the
// cancellation.
func TestRunMatrixMidSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := runnerOptions(2)
	opts.Progress = func(string, ...any) { cancel() }
	m, err := sweep(ctx, []core.Config{core.SmallConfig(), core.MegaConfig()},
		core.SchemeKinds(), runnerSuite(t), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Error("cancelled sweep must not return a matrix")
	}
}

// TestFilteredSweepRendersOnlySweptSchemes: figures built from a filtered
// matrix must omit unswept schemes instead of fabricating 0.000 columns.
func TestFilteredSweepRendersOnlySweptSchemes(t *testing.T) {
	m, err := sweep(context.Background(), []core.Config{core.MegaConfig()},
		[]core.SchemeKind{core.KindBaseline, core.KindNDA}, runnerSuite(t), runnerOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	got := m.SecureSchemes()
	if len(got) != 1 || got[0] != core.KindNDA {
		t.Fatalf("Matrix.SecureSchemes() = %v, want [nda]", got)
	}
	fig := Figure6(m)
	if strings.Contains(fig, "stt-rename") || strings.Contains(fig, "stt-issue") {
		t.Errorf("filtered Figure6 renders unswept schemes:\n%s", fig)
	}
	if !strings.Contains(fig, "nda") || strings.Contains(fig, "0.000") {
		t.Errorf("filtered Figure6 missing real nda data:\n%s", fig)
	}
}

// TestRunMatrixFailFast: one impossible job (a proxy that halts inside the
// measurement window) fails the whole sweep with that job's error.
func TestRunMatrixFailFast(t *testing.T) {
	suite := runnerSuite(t)
	bad, err := workloads.ByName("503.bwaves")
	if err != nil {
		t.Fatal(err)
	}
	bad.Name = "000.bad"
	bad.Iters = 8 // halts long before the window closes
	suite = append(suite, bad)
	m, err := sweep(context.Background(), []core.Config{core.MegaConfig()}, core.SchemeKinds(), suite, runnerOptions(8))
	if err == nil {
		t.Fatal("sweep with an impossible job must fail")
	}
	if !strings.Contains(err.Error(), "000.bad") {
		t.Errorf("error %q does not name the failing benchmark", err)
	}
	if m != nil {
		t.Error("failed sweep must not return a matrix")
	}
}
