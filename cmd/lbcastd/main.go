// Command lbcastd is the consensus-as-a-service daemon: a long-running
// HTTP/JSON server over the batched consensus engine. Clients POST
// decision requests (graph spec, inputs, fault pattern, algorithm) to
// /v1/decide; the daemon admits them against per-client quotas and a
// bounded queue (429 on overflow), packs compatible requests into batched
// executions keyed by graph — reusing one memoized topology analysis and
// compiled flood plan per graph, so steady-state traffic rides the replay
// path — runs the groups on a multi-worker scheduler, and returns each
// decision (synchronous JSON, or SSE with ?stream=sse). /healthz reports
// liveness, /metrics serves Prometheus text counters (queue depth, batch
// occupancy, decisions/sec, replay hit rate, per-client tallies), and
// SIGINT/SIGTERM trigger a graceful drain: admission stops, forming
// batches flush, pending decisions are delivered, then the process exits.
//
// Usage:
//
//	lbcastd                             # listen on :8418, GOMAXPROCS workers
//	lbcastd -addr :9000 -workers 8
//	lbcastd -max-batch 32 -linger 1ms   # smaller, fresher batches
//	lbcastd -max-pending 4096 -client-quota 512
//
// A decision request, end to end:
//
//	curl -s localhost:8418/v1/decide -d '{
//	  "graph": "figure1a", "f": 1,
//	  "inputs": [0, 1, 0, 1, 1],
//	  "faults": [{"node": 2, "strategy": "silent"}]
//	}'
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lbcast/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lbcastd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	log.SetPrefix("lbcastd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cfg.OnListen = func(addr string) {
		log.Printf("listening on %s (workers=%d max-batch=%d linger=%s)",
			addr, workers, cfg.MaxBatch, cfg.Linger)
	}
	srv := server.New(cfg)
	err = srv.ListenAndServe(ctx)
	if ctx.Err() != nil && err == nil {
		log.Printf("drained cleanly, exiting")
	}
	return err
}

// parseFlags maps the command line onto a server.Config.
func parseFlags(args []string) (server.Config, error) {
	fs := flag.NewFlagSet("lbcastd", flag.ContinueOnError)
	addr := fs.String("addr", ":8418", "listen address")
	workers := fs.Int("workers", 0, "scheduler workers: packed groups executing concurrently, each its own round loop (0 = GOMAXPROCS)")
	maxBatch := fs.Int("max-batch", 64, "max requests packed into one batched execution")
	linger := fs.Duration("linger", 2*time.Millisecond, "how long a forming batch waits for more requests before dispatching (negative = dispatch each request alone)")
	maxPending := fs.Int("max-pending", 1024, "max admitted-but-undecided requests daemon-wide; beyond it requests get 429")
	clientQuota := fs.Int("client-quota", 256, "max pending requests per client (X-Client-ID header or remote host)")
	maxGraphs := fs.Int("max-graphs", 64, "max distinct topologies with memoized analyses/plans")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-drain bound on SIGINT/SIGTERM")
	if err := fs.Parse(args); err != nil {
		return server.Config{}, err
	}
	if fs.NArg() > 0 {
		return server.Config{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return server.Config{
		Addr:         *addr,
		Workers:      *workers,
		MaxBatch:     *maxBatch,
		Linger:       *linger,
		MaxPending:   *maxPending,
		ClientQuota:  *clientQuota,
		MaxGraphs:    *maxGraphs,
		DrainTimeout: *drainTimeout,
	}, nil
}
