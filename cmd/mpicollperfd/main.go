// Command mpicollperfd runs the calibration-as-a-service daemon: an
// HTTP/JSON server (see internal/serve) answering algorithm-selection
// queries from calibrated models and running calibration sweeps as
// cancellable asynchronous jobs over a persistent content-addressed
// store.
//
// Usage:
//
//	mpicollperfd [flags]
//
// Flags:
//
//	-addr HOST:PORT     listen address (default 127.0.0.1:7077; use :0
//	                    for an ephemeral port)
//	-addr-file PATH     write the bound address to PATH once listening
//	                    (lets scripts find an ephemeral port)
//	-store DIR          calibration store directory (default
//	                    "calibrations")
//	-workers N          concurrent calibration jobs (default 1)
//	-cache N            in-memory calibration LRU capacity (default 8)
//	-measure-workers N  per-sweep measurement concurrency (0 = all cores)
//
// SIGINT/SIGTERM shut the daemon down gracefully: the listener stops,
// in-flight requests finish, and running calibration jobs drain before
// the process exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mpicollperf/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], stop, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mpicollperfd:", err)
		os.Exit(1)
	}
}

// Connection timeouts bound what a slow or idle client can hold: its
// request headers must arrive within readHeaderTimeout and the whole
// request within readTimeout, and a keep-alive connection idle for
// idleTimeout is closed. Every endpoint reads a small JSON body and
// answers without waiting on a job, so each bound is far above any
// well-behaved request or the gap between a client's polls.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer wraps h in the daemon's HTTP server.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// run starts the daemon and blocks until the listener fails or a signal
// arrives on stop (factored out of main so tests can drive a full
// lifecycle in-process).
func run(args []string, stop <-chan os.Signal, out io.Writer) error {
	fs := flag.NewFlagSet("mpicollperfd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7077", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening")
	storeDir := fs.String("store", "calibrations", "calibration store directory")
	workers := fs.Int("workers", 1, "concurrent calibration jobs")
	cacheCap := fs.Int("cache", 8, "in-memory calibration LRU capacity")
	measureWorkers := fs.Int("measure-workers", 0, "per-sweep measurement concurrency (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	srv, err := serve.New(serve.Config{
		StoreDir:       *storeDir,
		Workers:        *workers,
		CacheCap:       *cacheCap,
		MeasureWorkers: *measureWorkers,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	fmt.Fprintf(out, "mpicollperfd listening on %s (store %s, %d job workers)\n",
		bound, *storeDir, *workers)

	hs := newHTTPServer(srv)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	case sig := <-stop:
		fmt.Fprintf(out, "mpicollperfd: %v — draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			srv.Close()
			return err
		}
		// In-flight calibration jobs finish before exit.
		srv.Close()
		fmt.Fprintln(out, "mpicollperfd: bye")
		return nil
	}
}
