package main

import (
	"net"
	"syscall"
	"testing"
	"time"

	"repro/internal/disttest"
)

// TestShutdownWithIdleConnection pins the SIGTERM path against a client
// connection that never carries a request — what an HTTP transport
// leaves behind after a speculative dial. Graceful shutdown counts such
// a connection as busy for seconds; the worker must still exit
// promptly.
func TestShutdownWithIdleConnection(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a worker subprocess")
	}
	w := disttest.StartWorker(t, 1, "")
	conn, err := net.Dial("tcp", w.Addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Let the server accept the connection before the signal lands.
	time.Sleep(100 * time.Millisecond)

	start := time.Now()
	w.Stop(syscall.SIGTERM)
	if took := time.Since(start); took >= 500*time.Millisecond {
		t.Errorf("worker took %s to exit after SIGTERM with an idle connection open, want < 500ms", took)
	}
}
