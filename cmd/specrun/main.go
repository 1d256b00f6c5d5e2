// Command specrun runs a single benchmark cell and dumps its full counter
// set and TraceDoctor-style analysis, including the baseline comparison
// used for the paper's Section 9.2 discussion. With -schemes it sweeps the
// benchmark under several schemes at once on the parallel engine. Cells
// resolve through a Session, so -cache makes repeated dives into the same
// cell free.
//
// Usage:
//
//	specrun -bench 548.exchange2 -config mega -scheme stt-rename
//	specrun -bench 505.mcf -schemes stt-rename,stt-issue,nda -j 4
//	specrun -bench 505.mcf -scheme nda -cache ~/.cache/shadowbinding
package main

import (
	"flag"
	"fmt"
	"strings"

	sb "repro"
	"repro/internal/cliutil"
	"repro/internal/trace"
)

const tool = "specrun"

func main() {
	bench := flag.String("bench", "548.exchange2", "benchmark name (see -list)")
	config := flag.String("config", "mega", "configuration: small, medium, large, mega, gem5-stt, gem5-nda")
	scheme := flag.String("scheme", "stt-rename", "single scheme: "+strings.Join(sb.SchemeNames(), ", "))
	opts := sb.DefaultOptions()
	flag.Uint64Var(&opts.WarmupCycles, "warmup", opts.WarmupCycles, "warmup cycles")
	flag.Uint64Var(&opts.MeasureCycles, "measure", opts.MeasureCycles, "measured cycles")
	list := flag.Bool("list", false, "list benchmarks and exit")
	common := cliutil.Register(flag.CommandLine, "")
	common.RegisterTrace(flag.CommandLine)
	flag.Parse()

	if *list {
		for _, p := range sb.Benchmarks() {
			fmt.Printf("%-18s %s\n", p.Name, p.Character)
		}
		return
	}

	cfg, err := sb.ConfigByName(*config)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	prof, err := sb.BenchmarkByName(*bench)
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	// One Build per cmd: scheme axis (baseline included — the sweep table
	// normalizes against it), cache stack, lazy session, SIGINT context.
	h, err := common.Build(tool, opts, true)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	defer h.Close()

	if common.SchemesCSV != "" {
		sweep(cfg, prof, h, common)
		return
	}

	kind, err := sb.SchemeByName(*scheme)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	sess := h.Session
	var run sb.Run
	if common.TraceOut != "" {
		// Traced runs go straight to the simulator (a cached cell cannot
		// replay its pipeline events); the recorder is observational, so
		// everything printed below matches an untraced run exactly.
		run = common.RunTraced(tool, cfg, kind, *bench, h.Options)
	} else if run, err = sess.Run(h.Ctx, cfg, kind, prof); err != nil {
		cliutil.Fatal(tool, err)
	}
	fmt.Printf("%s on %s under %s: IPC %.4f (%d instructions / %d cycles)\n\n",
		*bench, cfg.Name, kind, run.IPC, run.Insts, run.Cycles)
	fmt.Println(run.Stats)
	fmt.Println(sb.TraceOf(run))

	if kind != sb.Baseline {
		base, err := sess.Run(h.Ctx, cfg, sb.Baseline, prof)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		cmp := trace.Compare(sb.TraceOf(base), sb.TraceOf(run))
		fmt.Println(cmp)
	}
	finish(sess, common)
}

// sweep runs one benchmark under several schemes concurrently and prints
// a comparison table plus the per-scheme trace deltas against baseline.
func sweep(cfg sb.Config, prof sb.Benchmark, h *cliutil.Handles, common *cliutil.Flags) {
	m, err := h.Session.Matrix(h.Ctx, sb.MatrixSpec{
		Name: "specrun", Configs: []sb.Config{cfg}, Benches: []sb.Benchmark{prof},
	})
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	fmt.Printf("%s on %s, %d schemes\n\n", prof.Name, cfg.Name, len(h.Schemes))
	fmt.Printf("%-12s %8s %10s\n", "scheme", "IPC", "vs base")
	for _, k := range h.Schemes {
		fmt.Printf("%-12s %8.4f %9.1f%%\n", k,
			m.MeanIPC(cfg.Name, k), 100*m.BenchNormIPC(cfg.Name, k, prof.Name))
	}
	fmt.Println()
	for _, line := range cliutil.TraceDeltaLines(m, cfg.Name, h.Schemes) {
		fmt.Println(line)
	}
	finish(h.Session, common)
}

// finish prints the cache summary when a cache layer was selected.
func finish(sess *sb.Session, common *cliutil.Flags) {
	if common.CacheEnabled() {
		cliutil.PrintCacheSummary(tool, sess.Stats())
	}
}
