// Command lpserve is the live half of the observability stack: a
// long-running HTTP service that executes simulation jobs (model ×
// allocator × predictor cells) on a worker pool and exposes them while
// they run.
//
//	GET  /metrics            Prometheus text exposition of every job's
//	                         freshest snapshot — live mid-replay on the
//	                         bytes-allocated clock for running jobs
//	GET  /healthz            liveness + job counts (JSON)
//	GET  /jobs               job listing with status and clock (JSON)
//	POST /run                submit a job: {"model","allocator","predictor"}
//	GET  /snapshot/{id}.json the job's obs snapshot (live or final)
//	GET  /events             SSE stream of job transitions, timeline
//	                         samples, and structured obs events
//	GET  /debug/pprof/       the usual pprof surface
//
// SIGINT/SIGTERM drains: submissions are refused, queued and in-flight
// jobs run to completion, event streams close, then the listener stops.
//
// Usage:
//
//	lpserve -addr :8080 -matrix gawk,cfrac/arena -scale 0.05
//	curl -s localhost:8080/metrics | grep lp_arena_pinned
//	curl -s -XPOST localhost:8080/run -d '{"model":"perl","allocator":"bsd"}'
//	curl -N localhost:8080/events
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
)

const name = "lpserve"

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	matrixSpec := flag.String("matrix", "", "matrix spec to enqueue at startup (models/allocators/predictors, or all)")
	scale := flag.Float64("scale", 0.02, "trace scale relative to the paper's runs")
	seed := flag.Uint64("seed", 1993, "base RNG seed for trace generation")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "concurrent simulation workers")
	cliutil.Parse(name,
		"serve live simulation metrics over HTTP (Prometheus /metrics, SSE /events)",
		"lpserve -addr :8080 -matrix all -scale 0.05")

	cfg := core.DefaultConfig(*scale)
	cfg.SeedBase = *seed
	srv := newServer(cfg, *workers)

	if *matrixSpec != "" {
		jobs, err := core.ParseMatrix(*matrixSpec)
		if err != nil {
			cliutil.UsageError(name, "%v", err)
		}
		core.SortJobs(jobs)
		for _, spec := range jobs {
			if _, err := srv.submit(spec); err != nil {
				cliutil.Fatal(name, err)
			}
		}
		fmt.Fprintf(os.Stderr, "%s: enqueued %d matrix jobs\n", name, len(jobs))
	}

	httpSrv := srv.httpServer(*addr)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "%s: listening on %s (scale %g, %d workers)\n", name, *addr, *scale, *workers)

	select {
	case err := <-errCh:
		cliutil.Fatal(name, err)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "%s: signal received, draining jobs...\n", name)
	srv.shutdown()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		cliutil.Fatal(name, err)
	}
	fmt.Fprintf(os.Stderr, "%s: drained, bye\n", name)
}
