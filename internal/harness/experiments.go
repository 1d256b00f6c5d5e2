package harness

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/core"
)

// The experiment registry, mirroring core.RegisterScheme: each experiment
// declares its id, title, presentation order, and the exact cell sets it
// needs as MatrixSpecs, plus a render function over the materialized
// matrices. The paper's ten tables and figures self-register below; a
// drop-in experiment file calls RegisterExperiment from its own init and
// shows up in Session.Experiment, ExperimentIDs, every cmd's -experiment
// flag, and the examples without touching the facade.

// RenderFunc renders an experiment from its needed matrices, in the order
// the spec's Needs declared them.
type RenderFunc func(ms []*Matrix) (string, error)

// ExperimentSpec describes one experiment to the registry.
type ExperimentSpec struct {
	ID    string // unique CLI/display id, e.g. "fig6"
	Title string // one-line description
	Order int    // presentation order in ExperimentIDs
	// Needs lists the cell sets the experiment requires — and nothing
	// more: Session.Experiment simulates exactly these. An experiment
	// rendered purely from analytical models declares none.
	Needs  []MatrixSpec
	Render RenderFunc
}

var experiments = struct {
	sync.RWMutex
	specs map[string]ExperimentSpec
}{specs: make(map[string]ExperimentSpec)}

// RegisterExperiment adds an experiment. It panics on a nil render
// function, an empty id, or a duplicate id: registration happens at init
// time, where a broken drop-in should fail loudly, not at run time.
func RegisterExperiment(spec ExperimentSpec) {
	if spec.Render == nil {
		panic(fmt.Sprintf("harness: RegisterExperiment(%q): nil render function", spec.ID))
	}
	if spec.ID == "" {
		panic("harness: RegisterExperiment: empty id")
	}
	experiments.Lock()
	defer experiments.Unlock()
	if _, ok := experiments.specs[spec.ID]; ok {
		panic(fmt.Sprintf("harness: experiment %q registered twice", spec.ID))
	}
	experiments.specs[spec.ID] = spec
}

// deregisterExperiment removes a registration; tests use it to unwind
// drop-ins.
func deregisterExperiment(id string) {
	experiments.Lock()
	defer experiments.Unlock()
	delete(experiments.specs, id)
}

// Experiments returns every registered experiment in presentation order.
func Experiments() []ExperimentSpec {
	experiments.RLock()
	specs := make([]ExperimentSpec, 0, len(experiments.specs))
	for _, s := range experiments.specs {
		specs = append(specs, s)
	}
	experiments.RUnlock()
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].Order != specs[j].Order {
			return specs[i].Order < specs[j].Order
		}
		return specs[i].ID < specs[j].ID
	})
	return specs
}

// ExperimentIDs lists every registered experiment id in presentation
// order.
func ExperimentIDs() []string {
	specs := Experiments()
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.ID
	}
	return ids
}

// experimentByID looks up one registration.
func experimentByID(id string) (ExperimentSpec, bool) {
	experiments.RLock()
	defer experiments.RUnlock()
	s, ok := experiments.specs[id]
	return s, ok
}

func unknownExperiment(id string) error {
	return fmt.Errorf("harness: unknown experiment %q (known: %s)", id, strings.Join(ExperimentIDs(), ", "))
}

// renderFirst adapts a single-matrix emitter to a RenderFunc.
func renderFirst(f func(*Matrix) string) RenderFunc {
	return func(ms []*Matrix) (string, error) { return f(ms[0]), nil }
}

// The paper's experiments. Orders pin the historical ExperimentIDs
// sequence (table1, fig1, fig6..fig10, table3..table5); "fig1" is an
// alias for the Table 3 performance data it plots.
func init() {
	boom := []MatrixSpec{BoomSpec()}
	RegisterExperiment(ExperimentSpec{
		ID: "table1", Title: "Table 1: BOOM configurations and measured baseline IPC",
		Order: 0, Needs: boom, Render: renderFirst(Table1),
	})
	RegisterExperiment(ExperimentSpec{
		ID: "fig1", Title: "Figure 1: normalized performance (alias of Table 3)",
		Order: 1, Needs: boom, Render: renderFirst(Table3),
	})
	RegisterExperiment(ExperimentSpec{
		ID: "fig6", Title: "Figure 6: per-benchmark IPC normalized to baseline (Mega)",
		Order: 2, Needs: boom, Render: renderFirst(Figure6),
	})
	RegisterExperiment(ExperimentSpec{
		ID: "fig7", Title: "Figure 7: normalized IPC by configuration",
		Order: 3, Needs: boom, Render: renderFirst(Figure7),
	})
	RegisterExperiment(ExperimentSpec{
		ID: "fig8", Title: "Figure 8: relative IPC vs absolute baseline IPC",
		Order: 4, Needs: boom, Render: renderFirst(Figure8),
	})
	RegisterExperiment(ExperimentSpec{
		// Figure 9 is pure synthesis model: it needs no simulated cells.
		ID: "fig9", Title: "Figure 9: achieved frequency from the synthesis model",
		Order: 5, Render: func([]*Matrix) (string, error) { return Figure9(core.Configs()), nil },
	})
	RegisterExperiment(ExperimentSpec{
		ID: "fig10", Title: "Figure 10: relative timing vs absolute baseline IPC",
		Order: 6, Needs: boom, Render: renderFirst(Figure10),
	})
	RegisterExperiment(ExperimentSpec{
		ID: "table3", Title: "Table 3: normalized performance (IPC x timing)",
		Order: 7, Needs: boom, Render: renderFirst(Table3),
	})
	RegisterExperiment(ExperimentSpec{
		// Table 4 is pure synthesis model: no simulated cells either.
		ID: "table4", Title: "Table 4: area and power normalized to baseline (Mega)",
		Order: 8, Render: func([]*Matrix) (string, error) { return Table4(), nil },
	})
	RegisterExperiment(ExperimentSpec{
		ID: "table5", Title: "Table 5: IPC loss per configuration + gem5 comparison",
		Order: 9, Needs: []MatrixSpec{BoomSpec(), Gem5Spec()},
		Render: func(ms []*Matrix) (string, error) { return Table5(ms[0], ms[1]), nil },
	})
	RegisterExperiment(ExperimentSpec{
		// The extension comparison pins its scheme axis to every
		// registered scheme (ExtSpec), so `-schemes dom,invisispec
		// -experiment fig_ext` still renders the full head-to-head. Its
		// cells are content-identical to the Boom matrix's, so alongside
		// `-experiment all` it costs no extra simulation.
		ID: "fig_ext", Title: "Extended comparison: all registered schemes (IPC and performance)",
		Order: 10, Needs: []MatrixSpec{ExtSpec()}, Render: renderFirst(FigureExt),
	})
}
