// Command statsized is the timing-as-a-service daemon: a long-running
// HTTP/JSON server exposing the statsize Engine — session open/attach,
// analyze, what-if (single and batch), incremental resize, checkpoint/
// rollback, and streamed optimizer runs — over pooled incremental
// Sessions with lease-based eviction.
//
// Quickstart:
//
//	statsized -addr :8790 &
//	curl -s -X POST localhost:8790/v1/sessions -d '{"design":"c1908"}'
//	curl -s localhost:8790/stats
//
// The daemon drains gracefully on SIGTERM/SIGINT: optimizer streams are
// canceled (each emits its terminal done event), in-flight what-if
// batches finish, pooled sessions close, and the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"statsize"
	"statsize/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8790", "listen address (use 127.0.0.1:0 for an ephemeral port)")
		maxSessions  = flag.Int("max-sessions", 64, "live session cap; LRU unleased sessions are evicted beyond it")
		idleTimeout  = flag.Duration("idle-timeout", 5*time.Minute, "evict sessions unleased for this long (<0 disables)")
		sweepEvery   = flag.Duration("sweep-every", 15*time.Second, "eviction sweep period")
		maxBody      = flag.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "request body cap in bytes")
		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown drain budget")
		parallelism  = flag.Int("parallelism", 0, "engine worker parallelism (0 = GOMAXPROCS)")
		bins         = flag.Int("bins", 0, "default SSTA grid bins (0 = engine default; per-session override via the API)")
		readyFile    = flag.String("ready-file", "", "write the bound address to this file once listening (for harnesses)")

		noAdmission = flag.Bool("no-admission", false, "disable admission control (accept everything; overload becomes latency)")
		querySlots  = flag.Int("query-slots", 0, "concurrent query-class requests (what-if/resize/checkpoint; 0 = default 64)")
		heavySlots  = flag.Int("heavy-slots", 0, "concurrent heavy-class requests (open/analyze/optimize; 0 = default 8)")
		queryQueue  = flag.Int("query-queue", 0, "query-class admission queue depth (0 = default 256)")
		heavyQueue  = flag.Int("heavy-queue", 0, "heavy-class admission queue depth (0 = default 16)")
		queueWait   = flag.Duration("queue-wait", 0, "max time an over-capacity request waits before 429 (0 = default 500ms)")
		maxDeadline = flag.Duration("max-deadline", 0, "ceiling on per-request X-Deadline-Ms budgets (0 = default 2m, <0 disables)")
		runLinger   = flag.Duration("run-linger", 0, "grace before a subscriber-less optimize run is canceled (0 = default 10s)")
	)
	flag.Parse()
	log.SetPrefix("statsized: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	var opts []statsize.Option
	if *parallelism > 0 {
		opts = append(opts, statsize.WithParallelism(*parallelism))
	}
	if *bins > 0 {
		opts = append(opts, statsize.WithBins(*bins))
	}
	eng, err := statsize.New(opts...)
	if err != nil {
		log.Fatalf("engine: %v", err)
	}

	srv := server.New(eng, server.Config{
		Addr:             *addr,
		MaxSessions:      *maxSessions,
		IdleTimeout:      *idleTimeout,
		SweepEvery:       *sweepEvery,
		MaxBodyBytes:     *maxBody,
		DrainTimeout:     *drainTimeout,
		DisableAdmission: *noAdmission,
		QuerySlots:       *querySlots,
		HeavySlots:       *heavySlots,
		QueryQueue:       *queryQueue,
		HeavyQueue:       *heavyQueue,
		QueueWait:        *queueWait,
		MaxDeadline:      *maxDeadline,
		RunLinger:        *runLinger,
	})

	// A ready file left by an earlier run names a dead address: remove
	// it before listening, and publish the new address by renaming a
	// finished temporary file onto it, so a harness polling for the
	// file reads neither a stale address nor a partial line.
	if *readyFile != "" {
		if err := os.Remove(*readyFile); err != nil && !errors.Is(err, fs.ErrNotExist) {
			log.Fatalf("ready-file: %v", err)
		}
	}
	served := make(chan error, 1)
	go func() {
		served <- srv.ListenAndServe(func(a net.Addr) {
			log.Printf("listening on %s (max-sessions=%d idle-timeout=%s)", a, *maxSessions, *idleTimeout)
			if *readyFile != "" {
				tmp := *readyFile + ".tmp"
				err := os.WriteFile(tmp, []byte(a.String()+"\n"), 0o644)
				if err == nil {
					err = os.Rename(tmp, *readyFile)
				}
				if err != nil {
					log.Printf("ready-file: %v", err)
				}
			}
		})
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)

	select {
	case err := <-served:
		// Listener failure before any signal: a fatal boot error.
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
		return
	case got := <-sig:
		log.Printf("caught %s; draining (budget %s)", got, *drainTimeout)
	}

	// One more signal force-quits without waiting for the drain.
	done := make(chan struct{})
	go func() {
		select {
		case got := <-sig:
			log.Printf("caught second %s; exiting immediately", got)
			os.Exit(1)
		case <-done:
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("shutdown: %v", err)
		os.Exit(1)
	}
	if err := <-served; err != nil {
		log.Printf("serve: %v", err)
		os.Exit(1)
	}
	close(done)
	st := srv.Manager().Stats()
	fmt.Fprintf(os.Stderr, "statsized: clean shutdown (sessions opened=%d evicted_idle=%d evicted_cap=%d)\n",
		st.Opened, st.EvictedIdle, st.EvictedCap)
}
