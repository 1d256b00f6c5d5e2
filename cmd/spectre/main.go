// Command spectre runs the Spectre v1 and Speculative Store Bypass proofs
// of concept (the paper's Section 7 security verification) under every
// registered scheme — or a -schemes subset — and prints the verdicts. The
// per-scheme attacks are independent and run on a bounded worker pool;
// Ctrl-C cancels the pool and exits non-zero.
//
// Usage:
//
//	spectre                      # Mega configuration, all schemes
//	spectre -config small -schemes baseline,nda -j 2
package main

import (
	"flag"
	"fmt"
	"os"

	sb "repro"
	"repro/internal/attack"
	"repro/internal/cliutil"
	"repro/internal/harness"
)

const tool = "spectre"

func main() {
	config := flag.String("config", "mega", "configuration: small, medium, large, mega")
	common := cliutil.Register(flag.CommandLine,
		"accepted for CLI symmetry; attack verdicts are security checks and are always re-simulated")
	flag.Parse()

	cfg, err := sb.ConfigByName(*config)
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	// One Build per cmd: scheme axis as given (verdicts are per-scheme,
	// nothing normalizes), SIGINT context, profiling. Attack verdicts are
	// security checks and never resolve through the cell cache.
	h, err := common.Build(tool, sb.DefaultOptions(), false)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	defer h.Close()
	schemes, ctx := h.Schemes, h.Ctx

	// Two attacks per scheme: Spectre v1 first, then SSB, each block in
	// registry order. Slots are fixed up front so the concurrent attacks
	// can never reorder the report.
	jobs := make([]func() (sb.AttackResult, error), 0, 2*len(schemes))
	for _, kind := range schemes {
		jobs = append(jobs, func() (sb.AttackResult, error) { return sb.SpectreV1(cfg, kind) })
	}
	for _, kind := range schemes {
		jobs = append(jobs, func() (sb.AttackResult, error) { return sb.SpectreSSB(cfg, kind) })
	}

	results := make([]sb.AttackResult, len(jobs))
	err = harness.ParallelDo(ctx, len(jobs), common.Parallelism, func(i int) error {
		r, err := jobs[i]()
		if err != nil {
			return err
		}
		results[i] = r
		return nil
	})
	if err != nil {
		cliutil.Fatal(tool, err)
	}

	fmt.Printf("Spectre v1 bounds-check bypass on the %s configuration\n", cfg.Name)
	fmt.Printf("planted secret: %d (probe slot %d)\n\n", attack.SecretValue, attack.SecretValue&63)
	fmt.Printf("(first %d rows: Spectre v1; last %d: Speculative Store Bypass)\n", len(schemes), len(schemes))
	exit := 0
	for _, r := range results {
		verdict := "BLOCKED"
		if r.Leaked {
			verdict = "LEAKED"
			if r.Scheme != sb.Baseline {
				exit = 1 // a secure scheme leaking is a reproduction failure
			}
		}
		fmt.Printf("%-12s %-8s hot slots %v", r.Scheme, verdict, r.HotSlots)
		if r.GuessedSecret >= 0 {
			fmt.Printf("  -> recovered %d", r.GuessedSecret)
		}
		fmt.Println()
	}
	h.Close() // os.Exit skips defers; flush profiles explicitly
	os.Exit(exit)
}
