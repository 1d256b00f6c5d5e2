// Quickstart: open an evaluation Session, sweep one SPEC proxy benchmark
// on the Mega BOOM configuration under every scheme, and
// compare IPC. Cells are content-addressed and cached in the session, so
// the second request at the end answers without simulating anything —
// the smallest useful ShadowBinding program, and the smallest useful
// cache demo.
package main

import (
	"context"
	"fmt"
	"log"

	sb "repro"
)

func main() {
	const bench = "538.imagick"
	cfg := sb.MegaConfig()

	fmt.Printf("%s on the %s configuration (%d-wide, %d-entry ROB)\n\n",
		bench, cfg.Name, cfg.Width, cfg.ROBSize)

	prof, err := sb.BenchmarkByName(bench)
	if err != nil {
		log.Fatal(err)
	}
	// The scheme axis comes from the core's scheme roster: a scheme added
	// there shows up here without any change to this program.
	// Pass Cache: sb.OpenCache(sb.CacheOptions{Dir: dir}) to persist
	// cells across processes.
	s := sb.NewSession(sb.SessionConfig{Options: sb.DefaultOptions()})
	ctx := context.Background()

	m, err := s.Matrix(ctx, sb.MatrixSpec{
		Name: "quickstart", Configs: []sb.Config{cfg}, Benches: []sb.Benchmark{prof},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, scheme := range sb.Schemes() {
		fmt.Printf("%-12s IPC %.3f (%.1f%% of baseline)\n",
			scheme, m.MeanIPC(cfg.Name, scheme), 100*m.NormIPC(cfg.Name, scheme))
	}

	// Ask for one of those cells again: the session serves it from the
	// cache — zero additional simulation.
	if _, err := s.Run(ctx, cfg, sb.STTIssue, prof); err != nil {
		log.Fatal(err)
	}
	st := s.Stats()
	fmt.Printf("\nsession: %d cell requests, %d simulated, %d cache hits (%.0f%%)\n",
		st.Cells, st.Simulated, st.Hits, 100*st.HitRate())
}
