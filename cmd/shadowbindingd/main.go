// Command shadowbindingd serves the evaluation cell farm: a networked,
// content-addressed store and compute service over the same cell engine
// the cmds use locally. Any shadowbinding/specrun process points -remote
// at it for a shared fleet-wide cache layer; with -remote-compute the
// daemon also simulates whole experiments and missing cells (coalescing
// duplicate in-flight requests fleet-wide), and with -workers it shards
// that cold compute across a pool of worker daemons by key hash.
//
// Usage:
//
//	shadowbindingd -addr 127.0.0.1:8484 -cache ~/.cache/shadowbinding
//	shadowbindingd -addr :8484 -workers http://w1:8484,http://w2:8484
//	shadowbindingd -addr :8485 -cache /var/cache/farm-w1   # a worker
//
// Protocol (see internal/farm): GET/PUT /v1/cells/{key} for the remote
// cache, POST /v1/experiments for all compute (a streamed experiment; a
// single cell is a one-cell experiment), GET /v1/stats for counters.
// Workers are rendezvous-hashed and health-probed; a dead worker's keys
// re-shard to the survivors, each forward a one-cell stream.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"strings"
	"time"

	sb "repro"
	"repro/internal/cliutil"
)

const tool = "shadowbindingd"

func main() {
	addr := flag.String("addr", "127.0.0.1:8484", "listen address")
	workers := flag.String("workers", "", "comma-separated worker base URLs to shard cold compute across (each a shadowbindingd)")
	probe := flag.Duration("probe", 0, "worker health-probe interval (0: 2s; negative: passive failure detection only)")
	verbose := flag.Bool("v", false, "log at debug level (includes per-cell engine lines)")
	common := cliutil.Register(flag.CommandLine,
		"cell cache directory backing the farm store (empty: in-memory only, nothing survives the process)")
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// The same Build every cmd uses; the daemon takes the cache stack and
	// the SIGINT context (-remote even chains this daemon onto an upstream
	// farm store) and leaves the session untouched.
	h, err := common.Build(tool, sb.DefaultOptions(), false)
	if err != nil {
		cliutil.Fatal(tool, err)
	}
	defer h.Close()

	var workerURLs []string
	if *workers != "" {
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				workerURLs = append(workerURLs, u)
			}
		}
	}

	farm := sb.NewFarmServer(sb.FarmServerConfig{
		Cache:         h.Cache,
		Workers:       workerURLs,
		Parallelism:   common.Parallelism,
		ProbeInterval: *probe,
		Logger:        logger,
	})
	defer farm.Close() // stop the worker health prober
	srv := &http.Server{Addr: *addr, Handler: farm.Handler()}

	// SIGINT drains in-flight requests instead of dropping them mid-cell.
	ctx := h.Ctx
	done := make(chan error, 1)
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(shutdownCtx)
	}()

	logger.Info("serving cell farm",
		"addr", *addr,
		"cache", common.CacheDir,
		"workers", len(workerURLs),
		"version", sb.SimVersion,
	)
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		cliutil.Fatal(tool, err)
	}
	if err := <-done; err != nil {
		cliutil.Fatal(tool, fmt.Errorf("shutdown: %w", err))
	}
	st := farm.Stats()
	logger.Info("farm stopped",
		"gets", st.Gets, "puts", st.Puts,
		"experiments", st.Experiments, "computes", st.Computes,
		"forwarded", st.Forwarded, "worker_errors", st.WorkerErrors,
		"simulated", st.EngineSimulated, "sim_cycles", st.SimCycles,
	)
}
