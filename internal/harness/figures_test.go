package harness

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenMatrix is the tiny 2-benchmark matrix behind the figure-emitter
// golden tests: all four Table 1 configurations, every scheme,
// one memory-bound and one high-ILP proxy, short fixed windows. Small
// enough to run in under a second, rich enough that every emitter path
// (normalization, trends, per-scheme columns) renders real numbers.
//
// These goldens double as the byte-identical oracle for scheduler and
// pipeline refactors: a perf-only change to internal/core must leave every
// golden untouched.
var (
	goldenOnce sync.Once
	goldenM    *Matrix
	goldenErr  error
)

func goldenMatrix(t *testing.T) *Matrix {
	t.Helper()
	goldenOnce.Do(func() {
		var benches []workloads.Profile
		for _, name := range []string{"505.mcf", "525.x264"} {
			p, err := workloads.ByName(name)
			if err != nil {
				goldenErr = err
				return
			}
			benches = append(benches, p)
		}
		opts := DefaultOptions()
		opts.WarmupCycles = 2_000
		opts.MeasureCycles = 8_000
		goldenM, goldenErr = sweep(context.Background(), core.Configs(), core.SchemeKinds(), benches, opts)
	})
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenM
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to generate): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s output diverged from golden; if the model change is intentional, regenerate with -update\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

func TestTable1Golden(t *testing.T) {
	checkGolden(t, "table1", Table1(goldenMatrix(t)))
}

func TestFigure6Golden(t *testing.T) {
	checkGolden(t, "figure6", Figure6(goldenMatrix(t)))
}

func TestFigure7Golden(t *testing.T) {
	checkGolden(t, "figure7", Figure7(goldenMatrix(t)))
}

func TestFigure8Golden(t *testing.T) {
	checkGolden(t, "figure8", Figure8(goldenMatrix(t)))
}

func TestFigure10Golden(t *testing.T) {
	checkGolden(t, "figure10", Figure10(goldenMatrix(t)))
}

func TestTable3Golden(t *testing.T) {
	checkGolden(t, "table3", Table3(goldenMatrix(t)))
}

// TestFigureExtGolden pins the extended 6-scheme comparison — the one
// figure whose columns include the extension schemes (DoM, InvisiSpec) —
// so the CI goldens-drift step catches silent changes to it just like
// the paper figures.
func TestFigureExtGolden(t *testing.T) {
	checkGolden(t, "figure_ext", FigureExt(goldenMatrix(t)))
}

// TestPaperFiguresPinPaperRoster: the paper-reproduction figures render
// exactly the paper's scheme columns even though the matrix sweeps every
// scheme; the extension schemes appear only in FigureExt.
func TestPaperFiguresPinPaperRoster(t *testing.T) {
	m := goldenMatrix(t)
	for name, out := range map[string]string{
		"fig6":   Figure6(m),
		"fig7":   Figure7(m),
		"fig8":   Figure8(m),
		"fig10":  Figure10(m),
		"table3": Table3(m),
	} {
		for _, ext := range []string{"dom", "invisispec"} {
			if strings.Contains(out, ext) {
				t.Errorf("%s renders extension scheme %q; paper figures are pinned to the paper roster (use fig_ext)", name, ext)
			}
		}
	}
	ext := FigureExt(m)
	for _, want := range []string{"stt-rename", "stt-issue", "nda", "dom", "invisispec"} {
		if !strings.Contains(ext, want) {
			t.Errorf("fig_ext missing scheme %q", want)
		}
	}

	// The synthesis-model artifacts are deliberately all-scheme: the
	// analytical timing/area/power model covers every scheme (FigureExt's
	// performance column depends on it), so Figure 9 and Table 4 have a
	// row per roster entry rather than pinning to the paper roster.
	for name, out := range map[string]string{
		"fig9":   Figure9(core.Configs()),
		"table4": Table4(),
	} {
		for _, want := range []string{"dom", "invisispec"} {
			if !strings.Contains(out, want) {
				t.Errorf("%s missing extension scheme %q; synthesis artifacts cover every scheme", name, want)
			}
		}
	}
}
