// Command detservd serves the paper's deterministic maximal-matching and
// MIS solvers over HTTP/JSON from a pool of warm engines.
//
// The server keeps repro.Engine instances (and their pooled scratch
// contexts and prepared-graph caches) alive across requests; graphs route
// to engines by content fingerprint for warm-cache affinity. Each engine
// has its own bounded admission queue and a deterministic deficit
// round-robin scheduler dispatches across them, so a backlog of long
// solves on one fingerprint cannot starve requests for other graphs.
// Overflow is per engine — a full home queue rejects with HTTP 429 even
// while other queues have room — and per-request deadlines (which include
// queue wait) map onto the engines' round- and seed-batch-boundary
// cancellation, so an expired or disconnected request abandons its solve
// cleanly and leaves the engine warm.
//
// Usage:
//
//	detservd -addr :7317 -engines 2 -workers 8 -queue 128
//	detservd -addr :7317 -default-timeout 5s -max-timeout 30s -eps 0.5
//
// Endpoints (see internal/serve and cmd/detservd/README.md):
//
//	GET  /healthz    liveness probe
//	GET  /v1/status  aggregate + per-engine admission/solve counters
//	POST /v1/graphs  upload a graph, get its content fingerprint
//	POST /v1/solve   solve matching or MIS; "stream": true for NDJSON
//	                 per-round progress (disconnecting cancels the solve
//	                 at its next round boundary)
//
// Determinism holds through the service: a served solve returns exactly
// the bits a direct Engine call produces for the same graph and options,
// regardless of worker count, engine routing, or concurrent load.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/serve"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:7317", "listen address")
		engines    = flag.Int("engines", 1, "warm engines in the pool (graphs route to engines by fingerprint)")
		workers    = flag.Int("workers", 0, "concurrent solves (0 = one per CPU)")
		queue      = flag.Int("queue", 64, "per-engine admission queue depth; a request whose home queue is full is rejected with 429")
		defTimeout = flag.Duration("default-timeout", 0, "deadline applied to requests that set none (0 = none)")
		maxTimeout = flag.Duration("max-timeout", 0, "upper clamp on any per-request timeout_ms (0 = unclamped)")
		maxBody    = flag.Int64("max-body", 0, "request body limit in bytes (0 = 64 MiB default)")
		eps        = flag.Float64("eps", 0, "default space exponent ε (0 = library default)")
		strategy   = flag.String("strategy", "auto", "default strategy: auto | sparsify | lowdeg")
		par        = flag.Int("par", 0, "default host parallelism per solve (0 = one per CPU); results identical at any setting")
		skipCost   = flag.Bool("skip-cost", false, "disable MPC cost tracking by default")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("detservd: ")

	opts := &repro.Options{
		Epsilon:          *eps,
		Strategy:         repro.Strategy(*strategy),
		Parallelism:      *par,
		SkipCostTracking: *skipCost,
	}
	// Out-of-range defaults would fail every request; refuse to start.
	if err := repro.NewEngine(opts).CheckOptions(); err != nil {
		log.Fatal(err)
	}
	s := serve.New(serve.Config{
		Options:        opts,
		Engines:        *engines,
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		MaxBodyBytes:   *maxBody,
	})
	srv := &http.Server{Addr: *addr, Handler: s.Handler()}

	// First SIGINT/SIGTERM starts a graceful shutdown: stop accepting,
	// let in-flight requests finish (their own deadlines bound them), then
	// drain the admission queue. A second signal kills the process via the
	// restored default handler.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("listening on %s (%d engines, queue %d)", *addr, *engines, *queue)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Print("shutting down")
	shctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("shutdown: %v", err)
	}
	s.Close()
}
