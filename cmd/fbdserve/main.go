// Command fbdserve runs the simulator as an HTTP service: submit
// simulation jobs or whole parameter sweeps, poll or cancel them, stream
// live telemetry, and fetch cached results, backed by a bounded worker
// pool with a shared single-flight LRU result cache (see
// internal/simserver for the API).
//
// Examples:
//
//	fbdserve -addr :8077
//	fbdserve -workers 8 -queue 128 -cache 512 -job-timeout 5m -log-format json
//
//	curl -X POST localhost:8077/v1/jobs \
//	     -d '{"preset": "fbd-ap", "benchmarks": ["swim", "applu"], "seed": 1}'
//	curl localhost:8077/v1/jobs/job-1
//	curl -N localhost:8077/v1/jobs/job-1/events      # live SSE stream
//	curl localhost:8077/v1/jobs/job-1/stats          # latest epoch window
//	curl -X DELETE localhost:8077/v1/jobs/job-1
//	curl localhost:8077/metrics
//	curl localhost:8077/v1/dashboard?format=txt      # terminal dashboard
//
//	curl -X POST localhost:8077/v1/sweeps -d '{
//	      "name": "prefetch-compare",
//	      "configs": [{"preset": "fbd"}, {"preset": "fbd-ap"}],
//	      "workloads": [{"benchmarks": ["swim"]}, {"benchmarks": ["applu"]}],
//	      "seeds": [1, 2]}'
//	curl localhost:8077/v1/sweeps/sweep-1
//	curl localhost:8077/v1/sweeps/sweep-1/results?follow=1
//
// The full HTTP contract lives in api/openapi.yaml.
//
// Logging is structured (log/slog): -log-format picks text or json,
// -log-level the threshold. Every request logs one line with a request ID
// (honoring an incoming X-Request-ID) plus job/sweep correlation.
//
// On SIGINT/SIGTERM the server stops accepting work, drains in-flight
// jobs for -grace, then cancels whatever is still running. Live SSE
// streams close as soon as shutdown begins.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"fbdsim/internal/simserver"
)

func main() {
	var (
		addr       = flag.String("addr", ":8077", "listen address")
		workers    = flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
		queue      = flag.Int("queue", 64, "job queue depth; overflow returns 429")
		cacheSize  = flag.Int("cache", 256, "LRU result cache entries")
		jobTimeout = flag.Duration("job-timeout", 0, "per-job execution deadline (0 = none)")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		maxInsts   = flag.Int64("max-insts", 0, "cap on per-job instruction budgets (0 = none)")
		jobRetries = flag.Int("job-retries", 3, "cap on per-job transient-failure retries clients may request")
		sweepPar   = flag.Int("sweep-parallel", 0, "cap on per-sweep shard parallelism clients may request (0 = workers)")
		sweepCap   = flag.Int("max-sweep-points", 0, "cap on the grid size of one sweep submission (0 = 4096)")
		grace      = flag.Duration("grace", 30*time.Second, "shutdown grace period before in-flight jobs are cancelled")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this address (opt-in; keep it private)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fatalf("%v", err)
	}
	slog.SetDefault(logger)

	sim := simserver.New(simserver.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cacheSize,
		JobTimeout:     *jobTimeout,
		RetryAfter:     *retryAfter,
		MaxInsts:       *maxInsts,
		MaxJobRetries:  *jobRetries,
		SweepParallel:  *sweepPar,
		MaxSweepPoints: *sweepCap,
		Logger:         logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: simserver.AccessLog(logger, sim.Handler())}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		// The profiler gets its own mux and listener so the production
		// address never exposes pprof.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "addr", *debugAddr, "path", "/debug/pprof/")
			if err := http.ListenAndServe(*debugAddr, dbg); err != nil {
				logger.Error("debug listener failed", "err", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatalf("%v", err)
	case <-ctx.Done():
	}

	logger.Info("shutting down", "grace", grace.String())
	graceCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	// Drain the listener and the worker pool concurrently: sim.Shutdown
	// signals live SSE streams to end, which is exactly what lets
	// httpSrv.Shutdown finish draining instead of waiting out the grace
	// period on a long-lived streaming connection.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := httpSrv.Shutdown(graceCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			logger.Error("http shutdown", "err", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := sim.Shutdown(graceCtx); err != nil {
			logger.Warn("grace period expired; in-flight jobs cancelled")
		}
	}()
	wg.Wait()
	logger.Info("bye")
}

// buildLogger assembles the process logger from the -log-format and
// -log-level flags.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("-log-level %q: want debug, info, warn or error", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("-log-format %q: want text or json", format)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fbdserve: "+format+"\n", args...)
	os.Exit(1)
}
