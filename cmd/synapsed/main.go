// synapsed is the Synapse profile-store daemon: it serves a profile store
// over HTTP so many profiling and emulation hosts share one database — the
// paper's shared MongoDB service (§4), "profile once, emulate anywhere".
//
//	synapsed -addr :8181 -backend sharded -shards 16
//	synapsed -addr :8181 -backend file -dir /var/lib/synapse
//	synapsed -addr 127.0.0.1:8181 -pprof      # mounts /debug/pprof/
//	synapsed -max-inflight 256 -queue 64 -request-timeout 5s
//	synapsed -read-only                       # degraded: shed writes
//	synapsed -log-format json -log-level debug
//
// Clients connect with synapse.NewRemoteStore("http://host:8181") or any
// CLI -store flag given as an http:// URL. Overload protection (bounded
// in-flight requests, admission queue, 429 shedding with Retry-After) is
// configured with -max-inflight/-queue/-request-timeout; /v1/healthz
// reports the shed and in-flight counters plus build identity, and
// GET /v1/metrics renders the daemon's instruments in Prometheus text
// exposition (see docs/observability.md). Logs are structured (log/slog):
// -log-format picks text or json, -log-level sets the floor (per-request
// lines log at debug). The daemon sheds new requests and drains in-flight
// ones on SIGINT/SIGTERM.
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

	"synapse/internal/httpsvc"
	"synapse/internal/store"
	"synapse/internal/storesrv"
	"synapse/internal/telemetry"
)

// stdout is the daemon's log stream, replaceable in tests.
var stdout io.Writer = os.Stdout

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "synapsed:", err)
		os.Exit(1)
	}
}

// run starts the daemon and blocks until a signal (or, in tests, until the
// ready channel's consumer shuts it down via the returned server). ready,
// when non-nil, receives the bound address once the server is listening.
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("synapsed", flag.ExitOnError)
	addr := fs.String("addr", ":8181", "listen address")
	backendName := fs.String("backend", "sharded", "storage backend: mem, file, sharded")
	dir := fs.String("dir", "synapse-store", "profile directory (backend=file)")
	shards := fs.Int("shards", store.DefaultShards, "lock stripes (backend=sharded)")
	pprof := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	grace := fs.Duration("grace", 10*time.Second, "graceful shutdown drain timeout")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently-executing requests (0 = unbounded)")
	queue := fs.Int("queue", 0, "admission queue depth for reads at capacity (0 = shed)")
	readOnly := fs.Bool("read-only", false, "degraded mode: shed writes, serve reads")
	requestTimeout := fs.Duration("request-timeout", 0, "server-side per-request deadline (0 = none)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	logLevel := fs.String("log-level", "info", "log level floor: debug, info, warn, error (request lines log at debug)")
	version := fs.Bool("version", false, "print version and build information, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		telemetry.PrintVersion(stdout, "synapsed")
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

	var backend store.Store
	switch *backendName {
	case "mem":
		backend = store.NewMem()
	case "sharded":
		backend = store.NewSharded(*shards)
	case "file":
		f, err := store.NewFile(*dir)
		if err != nil {
			return err
		}
		backend = f
	default:
		return fmt.Errorf("unknown backend %q (want mem, file, or sharded)", *backendName)
	}

	srv := storesrv.New(backend, storesrv.Config{Config: svc, ReadOnly: *readOnly})
	bound, err := srv.Start(*addr)
	if err != nil {
		return err
	}
	logger.Info("serving",
		slog.String("backend", *backendName),
		slog.String("addr", "http://"+bound.String()),
		slog.Bool("read_only", *readOnly),
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
