// Command tcfserve runs the multi-tenant tcf-e execution server: an
// HTTP/JSON service that compiles, caches and executes tcf-e programs on
// the extended PRAM-NUMA machine for many concurrent clients, with
// per-tenant quotas, bounded-queue admission control, load shedding and
// graceful drain on SIGTERM/SIGINT.
//
// Usage:
//
//	tcfserve [flags]
//
// Endpoints:
//
//	POST /run      execute a program: {"source": "...", "groups": 4, ...}
//	GET  /metrics  queue depth, per-outcome counts, stage cycle attribution
//	GET  /healthz  200 while serving, 503 while draining
//
// Example:
//
//	tcfserve -addr :8080 &
//	curl -s -X POST localhost:8080/run -H 'X-Tenant: alice' \
//	    -d '{"source": "func main() { print(42); }"}'
//
// Every failure mode maps to a distinct HTTP status: 429 back off, 403
// quota exceeded, 422 rejected by the tcfvet admission gate, 408 deadline,
// 409 program fault, 503 draining.
//
// With -recover-dir the server becomes crash-recoverable: accepted runs are
// journaled (write-ahead) and checkpoint their machines every
// -checkpoint-every steps, so a killed or panicking server restarts, replays
// the journal, resumes lost runs from their last checkpoint and answers the
// original X-Request-Id values idempotently.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tcfpram/internal/machine"
	"tcfpram/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "tcfserve:", err)
		os.Exit(1)
	}
}

// run builds and serves until a termination signal arrives, then drains.
// onReady, when non-nil, receives the bound listen address once the server
// accepts connections (the integration-test seam; -addr :0 picks a free
// port).
func run(args []string, logw io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("tcfserve", flag.ContinueOnError)
	fs.SetOutput(logw)
	addr := fs.String("addr", ":8080", "listen address")
	maxConcurrent := fs.Int("max-concurrent", 0, "concurrent run slots (0 = default 4)")
	maxQueue := fs.Int("max-queue", 0, "admitted requests waiting for a slot before shedding (0 = 2x slots)")
	queueWait := fs.Duration("queue-wait", 0, "max time a queued request waits for a slot (0 = default 2s)")
	maxGroups := fs.Int("max-groups", 0, "largest machine Groups a request may ask for (0 = default 16)")
	maxProcs := fs.Int("max-procs", 0, "largest ProcsPerGroup a request may ask for (0 = default 16)")
	poolIdle := fs.Int("pool-idle", 0, "idle machines kept per config shape (0 = slots)")
	cacheEntries := fs.Int("cache-entries", 0, "compiled-program cache entries (0 = default 256)")
	watchdog := fs.Int64("watchdog-steps", 0, "livelock watchdog window in steps (0 = derive per tenant from the step quota)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace for in-flight runs on shutdown before cancellation")
	maxSteps := fs.Int64("max-steps", 0, "default tenant step quota per run (0 = default 1M)")
	maxThickness := fs.Int("max-thickness", 0, "default tenant flow-thickness quota (0 = default 64Ki)")
	maxSharedWords := fs.Int("max-shared-words", 0, "default tenant shared-memory cap in words (0 = default 1Mi)")
	maxWallClock := fs.Duration("max-wall-clock", 0, "default tenant wall-clock deadline per run (0 = default 5s)")
	maxSourceBytes := fs.Int("max-source-bytes", 0, "default tenant program-source cap (0 = default 64KiB)")
	maxInFlight := fs.Int("max-inflight", 0, "default tenant concurrent-run cap (0 = default 4)")
	backend := fs.String("backend", "", "default tenant step-engine backend: interp|fused (empty = interp)")
	recoverDir := fs.String("recover-dir", "", "enable crash recovery: write-ahead run journal and checkpoints live here")
	ckptEvery := fs.Int64("checkpoint-every", 0, "steps between mid-run machine checkpoints (0 = default 256; needs -recover-dir)")
	quiet := fs.Bool("quiet", false, "suppress the operational log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if _, err := machine.ParseBackend(*backend); err != nil {
		return err
	}

	logger := log.New(logw, "tcfserve: ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}

	opts := serve.Options{
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		MaxGroups:      *maxGroups,
		MaxProcs:       *maxProcs,
		WatchdogSteps:  *watchdog,
		PoolIdlePerKey: *poolIdle,
		CacheEntries:   *cacheEntries,
		DefaultLimits: serve.Limits{
			MaxSteps:       *maxSteps,
			MaxThickness:   *maxThickness,
			MaxSharedWords: *maxSharedWords,
			MaxWallClock:   *maxWallClock,
			MaxSourceBytes: *maxSourceBytes,
			MaxInFlight:    *maxInFlight,
			Backend:        *backend,
		},
		RecoverDir:           *recoverDir,
		CheckpointEverySteps: *ckptEvery,
		Logf:                 logf,
	}
	var srv *serve.Server
	if *recoverDir != "" {
		// NewRecovered replays the journal and finishes crashed runs before
		// returning, so by the time we listen every old request id already
		// has its idempotent answer.
		var err error
		if srv, err = serve.NewRecovered(opts); err != nil {
			return err
		}
	} else {
		srv = serve.New(opts)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()
	logf("listening on %s", ln.Addr())
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logf("signal %v: draining (grace %s)", sig, *drainTimeout)
	}

	// Stop admitting and finish (or cancel) in-flight runs first, then
	// shut the HTTP layer down — handlers have all returned by then, so
	// Shutdown only has idle connections left to close.
	srv.Drain(*drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logf("drained, exiting")
	return nil
}
