package harness

import (
	"fmt"
	"strings"

	"repro/internal/core"
)

// experiment is one table or figure: its id, a one-line title, the cell
// sets it needs, and a render over those matrices in the order needs
// lists them. Session.Experiment simulates exactly the needed cells, and
// an experiment rendered purely from analytical models needs none.
type experiment struct {
	id, title string
	needs     []MatrixSpec
	render    func(ms []*Matrix) (string, error)
}

// renderFirst adapts a single-matrix emitter to a render function.
func renderFirst(f func(*Matrix) string) func([]*Matrix) (string, error) {
	return func(ms []*Matrix) (string, error) { return f(ms[0]), nil }
}

// boomOnly lists the needs of the experiments rendered from the Boom matrix
// alone.
var boomOnly = []MatrixSpec{BoomSpec()}

// experiments is the paper's tables and figures plus the extended
// comparison, in presentation order; "fig1" is an alias for the Table 3
// performance data it plots.
var experiments = []experiment{
	{"table1", "Table 1: BOOM configurations and measured baseline IPC", boomOnly, renderFirst(Table1)},
	{"fig1", "Figure 1: normalized performance (alias of Table 3)", boomOnly, renderFirst(Table3)},
	{"fig6", "Figure 6: per-benchmark IPC normalized to baseline (Mega)", boomOnly, renderFirst(Figure6)},
	{"fig7", "Figure 7: normalized IPC by configuration", boomOnly, renderFirst(Figure7)},
	{"fig8", "Figure 8: relative IPC vs absolute baseline IPC", boomOnly, renderFirst(Figure8)},
	// Figure 9 is pure synthesis model: it needs no simulated cells.
	{"fig9", "Figure 9: achieved frequency from the synthesis model", nil,
		func([]*Matrix) (string, error) { return Figure9(core.Configs()), nil }},
	{"fig10", "Figure 10: relative timing vs absolute baseline IPC", boomOnly, renderFirst(Figure10)},
	{"table3", "Table 3: normalized performance (IPC x timing)", boomOnly, renderFirst(Table3)},
	// Table 4 is pure synthesis model: no simulated cells either.
	{"table4", "Table 4: area and power normalized to baseline (Mega)", nil,
		func([]*Matrix) (string, error) { return Table4(), nil }},
	{"table5", "Table 5: IPC loss per configuration + gem5 comparison", []MatrixSpec{BoomSpec(), Gem5Spec()},
		func(ms []*Matrix) (string, error) { return Table5(ms[0], ms[1]), nil }},
	// The extension comparison pins its scheme axis to every scheme
	// (ExtSpec), so `-schemes dom,invisispec -experiment fig_ext` still
	// renders the full head-to-head. Its cells are content-identical to
	// the Boom matrix's, so alongside `-experiment all` it costs no extra
	// simulation.
	{"fig_ext", "Extended comparison: all registered schemes (IPC and performance)", []MatrixSpec{ExtSpec()}, renderFirst(FigureExt)},
}

// ExperimentIDs lists every experiment id in presentation order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

// experimentByID looks up one experiment.
func experimentByID(id string) (experiment, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e, true
		}
	}
	return experiment{}, false
}

func unknownExperiment(id string) error {
	return fmt.Errorf("harness: unknown experiment %q (known: %s)", id, strings.Join(ExperimentIDs(), ", "))
}
