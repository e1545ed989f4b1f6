// synapse-worker is the Synapse fleet worker daemon: it serves the
// distributed scenario-execution protocol (internal/dist), compiling specs
// a coordinator ships to it and executing shards of replay jobs on the
// batched emulation engine.
//
//	synapse-worker -addr :9191
//	synapse-worker -addr :9191 -workers 8 -max-inflight 16 -queue 8
//	synapse-worker -addr 127.0.0.1:9191 -pprof
//	synapse-worker -log-format json -log-level debug
//
// A synapse-sim run points at a fleet with -workers-remote
// host:9191,host2:9191. Workers need no profile store: the coordinator
// resolves profiles and ships them inline with the spec, so a worker
// deployment is one static binary and one port. Outcomes are pure
// functions of the compiled (spec, profiles) — any worker can serve any
// chunk of any shard, any number of times (the coordinator speculatively
// re-executes straggler chunks), and the coordinator's merged report is
// byte-identical to a single-process run. Execute requests get NDJSON
// responses, 64 outcomes per line. /v1/healthz reports liveness plus the
// admission counters, GET /v1/metrics renders Prometheus text exposition
// (RED middleware plus worker series), and the daemon sheds new shards and
// drains in-flight ones on SIGINT/SIGTERM. See docs/distributed.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"synapse/internal/dist"
	"synapse/internal/httpsvc"
	"synapse/internal/telemetry"
)

// stdout is the daemon's log stream, replaceable in tests.
var stdout io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "synapse-worker:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal (or, in tests, until the
// ready channel's consumer shuts it down). ready, when non-nil, receives
// the bound address once the server is listening.
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("synapse-worker", flag.ExitOnError)
	addr := fs.String("addr", ":9191", "listen address")
	workers := fs.Int("workers", 0, "parallel emulation workers per shard (0 = all cores)")
	maxSessions := fs.Int("max-sessions", 4, "compile sessions held before evicting the oldest")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently-executing requests (0 = unbounded)")
	queue := fs.Int("queue", 0, "admission queue depth at capacity (0 = shed)")
	requestTimeout := fs.Duration("request-timeout", 0, "server-side per-request deadline (0 = none)")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	grace := fs.Duration("grace", 10*time.Second, "graceful shutdown drain timeout")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "log level floor: debug, info, warn, error (request lines log at debug)")
	version := fs.Bool("version", false, "print version and build information, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		telemetry.PrintVersion(stdout, "synapse-worker")
		return nil
	}
	logger, err := telemetry.NewLogger(stdout, *logFormat, *logLevel)
	if err != nil {
		return err
	}
	svc := httpsvc.Config{
		MaxInFlight:    *maxInflight,
		Queue:          *queue,
		RequestTimeout: *requestTimeout,
		Pprof:          *pprof,
		Metrics:        telemetry.NewRegistry(),
		Logger:         logger,
	}
	if err := svc.Validate(); err != nil {
		return err
	}

	srv := dist.NewServer(dist.ServerConfig{
		Config:      svc,
		Workers:     *workers,
		MaxSessions: *maxSessions,
	})
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	logger.Info("serving",
		slog.String("addr", "http://"+bound.String()),
		slog.Int("workers", *workers),
		slog.String("version", telemetry.BuildInfo().String()))
	if ready != nil {
		ready <- bound.String()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	logger.Info("draining", slog.String("signal", s.String()), slog.Duration("grace", *grace))
	ctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	return srv.Shutdown(ctx)
}
