// Command shadowbinding reproduces the paper's evaluation through the
// Session API: experiments are rendered lazily from content-addressed
// simulation cells, each executed at most once and — with -cache —
// persisted on disk, so a warm re-run of any experiment simulates
// nothing.
//
// Usage:
//
//	shadowbinding -experiment all
//	shadowbinding -experiment fig6 -measure 100000
//	shadowbinding -experiment fig7 -schemes stt-issue,nda -j 4
//	shadowbinding -experiment fig_ext                    # all schemes head-to-head
//	shadowbinding -experiment table1 -cache ~/.cache/shadowbinding   # warm runs are free
//	shadowbinding -experiment security
//
// Differential fuzzing (long offline campaigns and failure replay):
//
//	shadowbinding -fuzz 100000 -j 8          # campaign: 100k random programs
//	shadowbinding -fuzz-seed 123 -fuzz-mask 0x2f   # replay one failure
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	sb "repro"
	"repro/internal/cliutil"
)

const tool = "shadowbinding"

func main() {
	experiment := flag.String("experiment", "all",
		"experiment id: all, security, or one of "+strings.Join(sb.ExperimentIDs(), ", "))
	opts := sb.DefaultOptions()
	flag.Uint64Var(&opts.WarmupCycles, "warmup", opts.WarmupCycles, "warmup cycles per run")
	flag.Uint64Var(&opts.MeasureCycles, "measure", opts.MeasureCycles, "measured cycles per run")
	scale := flag.Int("scale", 1, "workload iteration multiplier")
	quiet := flag.Bool("q", false, "suppress progress output")
	fuzzN := flag.Int("fuzz", 0, "run a differential fuzzing campaign of N generated programs (cross-checks every scheme against the architectural reference)")
	fuzzSeed := flag.Uint64("fuzz-seed", 1, "base seed for -fuzz; without -fuzz, replay exactly one case (pair with -fuzz-mask)")
	fuzzMask := flag.Uint64("fuzz-mask", 0, "feature mask for a single-case replay (0 = all features)")
	traceCell := flag.String("trace-cell", "548.exchange2@mega@stt-rename",
		"cell to trace with -trace-out, as bench@config@scheme")
	serveTrace := flag.String("serve-trace", "", "serve the pipeline-trace viewer for this -trace-out JSONL file")
	serveAddr := flag.String("serve-addr", "127.0.0.1:8383", "listen address for -serve-trace")
	traceHTML := flag.String("trace-html", "",
		"with -serve-trace: render the viewer page to this file and exit instead of serving")
	common := cliutil.Register(flag.CommandLine, "")
	common.RegisterTrace(flag.CommandLine)
	flag.Parse()

	opts.Scale = *scale
	if !*quiet {
		opts.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	// One Build per cmd: scheme axis (baseline included — figures
	// normalize against it), cache stack, lazy session, SIGINT context,
	// and whole-run profiling (cell construction included — see
	// mem.Main.WriteRange for why that matters).
	h, err := common.Build(tool, opts, true)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	defer h.Close()

	fuzzFlagSet, experimentSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "fuzz", "fuzz-seed", "fuzz-mask":
			fuzzFlagSet = true
		case "experiment":
			experimentSet = true
		}
	})
	if fuzzFlagSet {
		if experimentSet {
			cliutil.Fatal(tool, fmt.Errorf("-experiment cannot be combined with -fuzz/-fuzz-seed/-fuzz-mask"))
		}
		runFuzz(h.Ctx, *fuzzN, *fuzzSeed, *fuzzMask, common.Parallelism, *quiet)
		return
	}

	if *serveTrace != "" {
		if *traceHTML != "" {
			page, err := sb.RenderTraceHTML(*serveTrace)
			if err != nil {
				cliutil.Fatal(tool, err)
			}
			if err := os.WriteFile(*traceHTML, page, 0o644); err != nil {
				cliutil.Fatal(tool, err)
			}
			fmt.Fprintf(os.Stderr, "%s: rendered %s to %s\n", tool, *serveTrace, *traceHTML)
			return
		}
		fmt.Fprintf(os.Stderr, "%s: serving trace viewer for %s on http://%s/\n", tool, *serveTrace, *serveAddr)
		if err := sb.ServeTrace(*serveAddr, *serveTrace); err != nil {
			cliutil.Fatal(tool, err)
		}
		return
	}
	if common.TraceOut != "" {
		runTracedCell(common, *traceCell, h.Options)
		return
	}

	if *experiment == "security" {
		report, err := sb.SecurityReport()
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Print(report)
		return
	}

	ids := []string{*experiment}
	if *experiment == "all" {
		ids = sb.ExperimentIDs()
	}
	for _, id := range ids {
		out, err := h.Session.Experiment(h.Ctx, id)
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Println(out)
	}
	if *experiment == "all" {
		report, err := sb.SecurityReport()
		if err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Println(report)
	}

	if common.CacheEnabled() {
		cliutil.PrintCacheSummary(tool, h.Session.Stats())
	}
}

// runTracedCell runs one bench@config@scheme cell with the JSONL trace
// recorder attached (-trace-out) and prints its headline result. The
// recorder is observational, so the printed numbers match an untraced
// run of the same cell.
func runTracedCell(common *cliutil.Flags, cell string, opts sb.Options) {
	parts := strings.Split(cell, "@")
	if len(parts) != 3 {
		cliutil.Fatal(tool, fmt.Errorf("-trace-cell wants bench@config@scheme, got %q", cell))
	}
	cfg, err := sb.ConfigByName(parts[1])
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	kind, err := sb.SchemeByName(parts[2])
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	run := common.RunTraced(tool, cfg, kind, parts[0], opts)
	fmt.Printf("%s on %s under %s: IPC %.4f (%d instructions / %d cycles)\n",
		run.Bench, run.Config, run.Scheme, run.IPC, run.Insts, run.Cycles)
}

// runFuzz drives the differential fuzzing subsystem: a campaign of n
// generated programs when n > 0, otherwise a single-case replay from a
// failure message's (seed, mask) pair.
func runFuzz(ctx context.Context, n int, seed, mask uint64, parallel int, quiet bool) {
	if n > 0 {
		var progress func(format string, args ...any)
		if !quiet {
			progress = func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			}
		}
		if err := sb.FuzzCampaign(ctx, seed, n, parallel, progress); err != nil {
			cliutil.Fatal(tool, err)
		}
		fmt.Printf("fuzz: %d cases passed (base seed %d, schemes %s)\n",
			n, seed, strings.Join(sb.SchemeNames(), ","))
		return
	}

	c := sb.FuzzCase{Seed: seed, Mask: sb.FuzzFeatureMask(mask)}
	if c.Mask == 0 {
		c.Mask = sb.FuzzFeatAll
	}
	if err := sb.ReplayFuzzCase(c); err != nil {
		cliutil.Fatal(tool, err)
	}
	fmt.Printf("fuzz: case %v passed on %s (schemes %s)\n",
		c, sb.FuzzConfigForCase(c).Name, strings.Join(sb.SchemeNames(), ","))
}
