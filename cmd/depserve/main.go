// Command depserve runs the implication engines as a resident HTTP
// service with live observability: a JSON API over internal/core, a
// Prometheus /metrics endpoint, structured request logs, readiness and
// pprof endpoints, and a per-request deadline so the instances the
// paper proves intractable (PSPACE-hard IND implication, divergent
// FD+IND chases) degrade into 503s with partial statistics instead of
// wedged workers.
//
// Usage:
//
//	depserve [-addr :8377] [-deadline 10s] [-max-deadline 60s]
//	         [-slow 500ms] [-budget N] [-search]
//	         [-cache-size 1024] [-cache-ttl 0] [-trace-buf 128]
//	         [-digest-size 256] [-otlp-file FILE] [-otlp-endpoint URL]
//	         [-max-batch 256]
//	         [-ts-resolution 2s] [-ts-retention 15m] [-alert-rules FILE]
//	         [-stats] [-trace-json FILE] [-pprof ADDR] [-memprofile FILE]
//
// Endpoints (see internal/serve):
//
//	POST /v1/implies     implication query
//	POST /v1/explain     implication query answered with its evidence
//	                     (proof, derivation DAG, or counterexample)
//	POST /v1/satisfies   satisfaction check of concrete tuples
//	POST /v1/batch       up to -max-batch goals against one inline or
//	                     registered Σ, one shared setup, answered in
//	                     order on the request's goroutine
//	PUT/GET/DELETE /v1/schemas/{name}  named-schema registry: versioned
//	                     (schema, Σ) sets compiled once, through the
//	                     same memo as inline requests; edits evict only
//	                     the cached answers tagged with a changed member
//	POST /v1/schemas/{name}/algebra    union/intersect/minimal-cover
//	GET  /metrics        Prometheus text exposition
//	GET  /healthz        liveness
//	GET  /readyz         readiness (armed once the listener is bound)
//	GET  /debug/obs      full metrics snapshot as JSON (span trees are
//	                     at /debug/traces)
//	GET  /debug/otlp     spans + metrics as one OTLP/JSON document
//	GET  /debug/traces   flight recorder: the last -trace-buf completed
//	                     requests; every response's X-Trace-Id resolves
//	                     at /debug/traces/{id}
//	GET  /debug/digests  query-digest analytics: the -digest-size hottest
//	                     query shapes by total engine time, with call
//	                     counts, latency histograms, error/cache-hit
//	                     rates and merged per-dependency cost profiles
//	GET  /debug/timeseries  retained telemetry history: the in-process
//	                     tsdb samples every counter delta, gauge value
//	                     and histogram quantile each -ts-resolution tick
//	                     and keeps -ts-retention of fine history plus a
//	                     coarser downsampled tier (cmd/deptop renders it
//	                     live; -ts-resolution 0 turns history off)
//	GET  /debug/alerts   the SLO watchdog: -alert-rules threshold and
//	                     multi-window burn-rate rules evaluated every
//	                     tick; firing critical alerts flip /readyz to a
//	                     degraded body naming the alert
//	GET  /debug/pprof/   profiles and execution traces
//
// Logs are JSON on stderr. A request slower than -slow is logged at
// Warn with slow_query=true, a response with status 400 or above at
// Info, and one in 64 of the other requests at Info with sample_rate=64
// (the line stands for 64 requests); /metrics counts every request.
// Every request carries W3C trace context (an incoming traceparent's
// trace ID is honored), and -otlp-file / -otlp-endpoint stream
// completed requests plus periodic metric snapshots as OTLP/JSON
// batches without ever blocking the serve path. On SIGINT/SIGTERM the
// server drains in-flight requests, flushes the exporter, then writes
// the -stats / -trace-json / -memprofile end-of-run artifacts like the
// batch commands do (the metrics only: query span trees are in the
// flight recorder).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"indfd/internal/cliutil"
	"indfd/internal/obs"
	"indfd/internal/obs/tsdb"
	"indfd/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8377", "listen address")
	deadline := flag.Duration("deadline", 10*time.Second, "default per-request engine deadline")
	maxDeadline := flag.Duration("max-deadline", 60*time.Second, "cap on the per-request timeout_ms")
	slow := flag.Duration("slow", 500*time.Millisecond, "latency above which a request is logged as slow")
	budget := flag.Int("budget", 0, "default chase tuple budget (0 = the chase package's default)")
	search := flag.Bool("search", false, "enable the counterexample-search fallback for every request (a request's search field can turn it on, never off)")
	cacheSize := flag.Int("cache-size", 1024, "answer cache entries (0 disables caching, including the compiled-system memo)")
	cacheTTL := flag.Duration("cache-ttl", 0, "answer cache entry lifetime (0 = never expire)")
	traceBuf := flag.Int("trace-buf", 128, "flight-recorder capacity for /debug/traces (negative disables)")
	digestSize := flag.Int("digest-size", 256, "query digests retained for /debug/digests (negative disables)")
	otlpFile := flag.String("otlp-file", "", "append OTLP/JSON telemetry batches to this file (JSONL)")
	otlpEndpoint := flag.String("otlp-endpoint", "", "POST OTLP/JSON telemetry batches to this URL")
	maxBatch := flag.Int("max-batch", 256, "cap on the goals in one /v1/batch request")
	tsResolution := flag.Duration("ts-resolution", 2*time.Second, "time-series sample interval for /debug/timeseries (0 disables history and alerting)")
	tsRetention := flag.Duration("ts-retention", 15*time.Minute, "fine-resolution history retained (a coarser tier keeps 8x longer)")
	alertRules := flag.String("alert-rules", "", "watchdog rules file: threshold and burn-rate SLO rules evaluated every tick")
	obsFlags := cliutil.Register(flag.CommandLine)
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	// Packages that log through slog.Default (the counterexample search's
	// skip warning) must land in the same JSON stream as the access log.
	slog.SetDefault(logger)
	if err := run(logger, *addr, *deadline, *maxDeadline, *slow, *budget, *search,
		*cacheSize, *cacheTTL, *traceBuf, *digestSize, *otlpFile, *otlpEndpoint,
		*maxBatch,
		*tsResolution, *tsRetention, *alertRules, obsFlags); err != nil {
		fmt.Fprintln(os.Stderr, "depserve:", err)
		os.Exit(1)
	}
}

func run(logger *slog.Logger, addr string, deadline, maxDeadline, slow time.Duration,
	budget int, search bool, cacheSize int, cacheTTL time.Duration,
	traceBuf, digestSize int, otlpFile, otlpEndpoint string,
	maxBatch int,
	tsResolution, tsRetention time.Duration, alertRules string,
	obsFlags *cliutil.ObsFlags) error {
	// The server always runs instrumented — /metrics is its point — so
	// the registry does not depend on the -stats/-trace-json flags.
	reg := obs.New()
	if err := obsFlags.StartPprof(); err != nil {
		return err
	}
	// Runtime telemetry (goroutines, heap, GC) lands in process.* gauges
	// on a ticker, so /metrics scrapes see live values between requests.
	stopSampler := obs.StartRuntimeSampler(reg, 10*time.Second)
	defer stopSampler()

	// OTLP export is off unless a sink is named; the exporter batches on
	// its own goroutine and the serve path only ever does a non-blocking
	// hand-off (a slow sink drops records into obs.export_dropped).
	exporter, err := obs.NewExporter(obs.ExporterConfig{
		Reg:      reg,
		FilePath: otlpFile,
		Endpoint: otlpEndpoint,
	})
	if err != nil {
		return err
	}
	defer func() {
		if err := exporter.Close(); err != nil {
			logger.Error("otlp exporter close failed", "err", err)
		}
	}()

	// Continuous telemetry: the tsdb ring samples the registry every
	// -ts-resolution tick and the watchdog evaluates -alert-rules
	// against the retained history. -ts-resolution 0 turns both off —
	// the nil store and nil watchdog are valid no-op values everywhere.
	store := tsdb.New(tsdb.Config{
		Resolution: tsResolution,
		Retention:  tsRetention,
		Reg:        reg,
	})
	var watchdog *tsdb.Watchdog
	if alertRules != "" {
		if store == nil {
			return fmt.Errorf("-alert-rules needs time-series history; raise -ts-resolution above 0")
		}
		text, err := os.ReadFile(alertRules)
		if err != nil {
			return err
		}
		rules, err := tsdb.ParseRules(string(text))
		if err != nil {
			return fmt.Errorf("%s: %v", alertRules, err)
		}
		if len(rules) == 0 {
			return fmt.Errorf("%s: no rules (comments and blank lines only)", alertRules)
		}
		watchdog = tsdb.NewWatchdog(store, rules, reg, nil)
		logger.Info("watchdog armed", "rules", len(rules), "file", alertRules,
			"tick", tsResolution.String())
	}

	srv := serve.New(serve.Config{
		Reg:             reg,
		Logger:          logger,
		DefaultDeadline: deadline,
		MaxDeadline:     maxDeadline,
		SlowQuery:       slow,
		ChaseBudget:     budget,
		SearchFallback:  search,
		CacheSize:       cacheSize,
		CacheTTL:        cacheTTL,
		TraceBuffer:     traceBuf,
		DigestSize:      digestSize,
		Exporter:        exporter,
		MaxBatch:        maxBatch,
		TSDB:            store,
		Watchdog:        watchdog,
	})
	// Alert transitions mirror into the server's flight recorder so
	// /debug/traces interleaves them with the requests that caused them.
	watchdog.SetRecorder(srv.Recorder())
	stopTelemetry := tsdb.StartLoop(reg, store, watchdog, tsResolution)
	defer stopTelemetry()
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv.SetReady(true)
	logger.Info("listening", "addr", ln.Addr().String())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case <-ctx.Done():
		logger.Info("shutting down", "reason", "signal")
		srv.SetReady(false)
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shCtx); err != nil {
			return err
		}
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	// Query span trees live in the flight recorder, not the registry:
	// the end-of-run report carries instruments only.
	return obsFlags.Finish(reg, nil)
}
