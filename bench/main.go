// Command shadowbench is the repository benchmark. Each invocation runs one
// workload in a fresh process — set it up several times, then run passes
// (one user-visible operation each) for a fixed window — checks every
// pass's output against testdata/reference.json, and prints one JSON result
// line with the end-to-end metrics that BENCHMARK.json at the repository
// root defines. With --trace 1 it instead reruns the workload's passes with
// per-layer timing wrappers, drives each layer's public functions directly
// (the layer ladder), writes the spans to out/<workload>.spans.jsonl and
// prints the per-layer metrics.
//
// Build and run it from the repository root with bench/run.sh; see
// README.md for the workloads, the metrics and the -compare and -update
// modes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	sb "repro"
)

// A run sets its workload up at least setupRepeats times and until
// setupMinTime has gone into set-up; setup_s is the median, so one slow
// set-up does not move it. A single set-up of the sub-second workloads
// varied by a quarter between runs, so they repeat theirs about seven
// times. The warm workload's set-up is a cold table1 fill of 4–6 s on a
// 2-vCPU Xeon VM; its three fills take about 15 s of each run.
const (
	setupRepeats = 3
	setupMinTime = 2 * time.Second
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = flag.Uint64("seed", 1, "input seed: the fuzz campaign's base seed (the table1 workloads use the paper's fixed inputs)")
		seconds = flag.Int("seconds", 30, "measurement window in seconds")
		traced  = flag.Int("trace", 0, "1: traced run that prints the per-layer metrics instead of the end-to-end ones")
		update  = flag.Bool("update", false, "regenerate testdata/reference.json for the current simulator version and exit")
		compare = flag.Bool("compare", false, "compare two run logs (parent.jsonl change.jsonl) and exit")
		fill    = flag.String("fill", "", "simulate table1 cold into this cell-store directory and exit (the warm workload's set-up)")
	)
	flag.Parse()
	// An interrupted run stops its passes, its fill child and its farm
	// server, removes its scratch directory and prints no result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *update:
		err = updateReference(ctx)
	case *fill != "":
		err = fillStore(ctx, *fill)
	case *traced != 0 && *traced != 1:
		err = fmt.Errorf("--trace takes 0 or 1, not %d", *traced)
	default:
		err = runBenchmark(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "shadowbench:", err)
		stop()
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line every run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the program reads: the metric
// names, units, directions and bounds it reports and compares.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func (s benchSpec) metrics() []metricSpec {
	return append(append([]metricSpec(nil), s.EndToEnd...), s.PerLayer...)
}

// loadSpec reads BENCHMARK.json from the repository root (the working
// directory bench/run.sh runs in).
func loadSpec() (benchSpec, error) {
	var s benchSpec
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return s, nil
}

// benchDir is the benchmark's own directory relative to the working
// directory: bench/ from the repository root, or here when run from it.
func benchDir() string {
	if _, err := os.Stat(filepath.Join("bench", "go.mod")); err == nil {
		return "bench"
	}
	return "."
}

// parallelism is j, the one knob of the load shape: the session pool and
// the farm server both get min(2, CPUs).
func parallelism() int { return min(2, runtime.NumCPU()) }

// options are the paper's fixed DefaultOptions windows at parallelism j.
func options() sb.Options {
	o := sb.DefaultOptions()
	o.Parallelism = parallelism()
	return o
}

// runBenchmark runs one workload, untraced or traced, and prints its
// result line.
func runBenchmark(ctx context.Context, name string, seed uint64, window time.Duration, traced bool) error {
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	ref, err := loadReference(sb.SimVersion)
	if err != nil {
		return err
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	dir := filepath.Join(benchDir(), ".build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: seed, par: parallelism(), dir: dir, exe: exe, ref: ref}
	w, err := newWorkload(name, e)
	if err != nil {
		return err
	}
	defer w.close()

	var res result
	var want []metricSpec
	if traced {
		res, err = traceRun(ctx, e, name, w, window)
		want = spec.PerLayer
	} else {
		res, err = measureRun(ctx, w, window)
		want = spec.EndToEnd
	}
	if err != nil {
		return err
	}
	if err := attachUnits(res.Metrics, want); err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// attachUnits fills in each metric's unit from BENCHMARK.json and checks
// that the run measured exactly the metrics the file lists.
func attachUnits(got map[string]metric, want []metricSpec) error {
	var missing []string
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			missing = append(missing, m.Name)
			continue
		}
		v.Unit = m.Unit
		got[m.Name] = v
	}
	if len(missing) > 0 {
		return fmt.Errorf("metrics listed in BENCHMARK.json but not measured: %s", strings.Join(missing, ", "))
	}
	if len(got) != len(want) {
		var extra []string
		listed := make(map[string]bool, len(want))
		for _, m := range want {
			listed[m.Name] = true
		}
		for name := range got {
			if !listed[name] {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return fmt.Errorf("metrics measured but not listed in BENCHMARK.json: %s", strings.Join(extra, ", "))
	}
	return nil
}

// runCompare implements -compare parent.jsonl change.jsonl.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two run logs: parent.jsonl change.jsonl")
	}
	spec, err := loadSpec()
	if err != nil {
		return err
	}
	parent, err := readRunLog(args[0])
	if err != nil {
		return err
	}
	change, err := readRunLog(args[1])
	if err != nil {
		return err
	}
	if compareLogs(os.Stdout, spec, parent, change) {
		return errors.New("a metric got worse")
	}
	return nil
}
