// Command djworker is one worker of the multi-process runtime: it
// serves shard-stage requests from a djprocess coordinator over
// localhost HTTP. The coordinator spawns a fleet of these (djprocess
// -workers N), ships each the recipe and measured profiles at
// configure time, and routes shard-local plan stages to them; dedup
// indexes, barriers and export stay coordinator-side so the merged
// output is byte-identical to a single-process run. See
// docs/distributed.md.
//
// Usage:
//
//	djworker [-id N] [-listen 127.0.0.1:0] [-work-dir DIR]
//
// The worker prints "ready <addr>" on stdout once it is serving — with
// -listen 127.0.0.1:0 that line is how the coordinator learns the
// OS-assigned port. SIGTERM and SIGINT shut it down: in-flight requests
// get a brief grace period, then every connection is closed. A worker
// spawned by a coordinator also dies with it (see remote.BindLifetime).
//
// The DJ_FAULT environment variable arms a fault for conformance
// testing: "crash", "hang" or "corrupt", optionally ":after=N" to
// trigger on the Nth stage request (see internal/remote/fault.go).
// Coordinators scrub DJ_FAULT from spawned workers' environments and
// forward per-worker DJ_FAULT_W<id> values instead, so a chaos test
// can aim a fault at exactly one fleet member.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	_ "repro/internal/ops/all"
	"repro/internal/remote"
)

func main() {
	var (
		id      = flag.Int("id", 1, "1-based worker ID (journal lane)")
		listen  = flag.String("listen", "127.0.0.1:0", "address to serve on (port 0 = OS-assigned, reported on the ready line)")
		workDir = flag.String("work-dir", "", "private work directory (default: a temp dir)")
	)
	flag.Parse()

	wd := *workDir
	if wd == "" {
		tmp, err := os.MkdirTemp("", "djworker-*")
		if err != nil {
			fatal(err)
		}
		wd = tmp
	} else if err := os.MkdirAll(wd, 0o755); err != nil {
		fatal(err)
	}

	srv := &remote.WorkerServer{ID: *id, WorkDir: wd}
	if spec := os.Getenv("DJ_FAULT"); spec != "" {
		f, err := remote.ParseFault(spec)
		if err != nil {
			fatal(err)
		}
		srv.Fault = f
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}

	// The ready line is the spawn protocol: the coordinator scrapes the
	// actual address (port 0 resolution) from it before dialing.
	fmt.Printf("ready %s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case <-sig:
		// Shutdown counts a connection that never carried a request as
		// busy for seconds; the coordinator signals only once its stages
		// are done, so a short drain suffices before closing everything.
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		if hs.Shutdown(ctx) != nil {
			hs.Close()
		}
	case err := <-errCh:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "djworker:", err)
	os.Exit(1)
}
