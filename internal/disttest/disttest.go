// Package disttest is the fault-injection harness for the multi-process
// runtime: it builds the real djworker binary once per test process and
// launches real worker subprocesses — optionally armed with an
// injectable fault (crash, hang, corrupt) via the DJ_FAULT hook — so
// conformance tests exercise the same process boundaries, wire frames
// and failure modes production runs see, not in-process stand-ins.
package disttest

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/remote"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// binaries builds cmd/djworker and cmd/djprocess into one directory
// once per test process, so that `djprocess -workers N` finds its
// workers beside itself the way an installed pair does.
func binaries(t testing.TB) string {
	t.Helper()
	buildOnce.Do(func() {
		root, err := moduleRoot()
		if err == nil {
			binDir, err = os.MkdirTemp("", "disttest-bin-*")
		}
		if err != nil {
			buildErr = err
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir, "./cmd/djworker", "./cmd/djprocess")
		cmd.Dir = root
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building djworker and djprocess: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binDir
}

// WorkerBin returns the built djworker. Tests that only need a fleet
// should use remote.Pool with this as PoolOptions.WorkerBin; tests that
// need to reach into a worker's lifecycle (external kill) should use
// StartWorker.
func WorkerBin(t testing.TB) string { return filepath.Join(binaries(t), "djworker") }

// ProcessBin returns the built djprocess.
func ProcessBin(t testing.TB) string { return filepath.Join(binaries(t), "djprocess") }

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("disttest: no go.mod above the test working directory")
		}
		dir = parent
	}
}

// Worker is one externally-managed djworker subprocess.
type Worker struct {
	ID   int
	Addr string
	cmd  *exec.Cmd
}

// StartWorker launches one djworker outside any pool — the hook for
// tests that SIGKILL a fleet member from the outside (a failure no
// in-process fault can model) and for dialed -worker-addrs fleets.
// fault, when non-empty, is the worker's DJ_FAULT spec. The worker is
// torn down at test cleanup, or with the test process if that dies
// first; Kill ends it sooner.
func StartWorker(t testing.TB, id int, fault string) *Worker {
	t.Helper()
	cmd := exec.Command(WorkerBin(t), "-id", fmt.Sprint(id), "-listen", "127.0.0.1:0",
		"-work-dir", filepath.Join(t.TempDir(), fmt.Sprintf("w%d", id)))
	env := os.Environ()
	if fault != "" {
		env = append(env, "DJ_FAULT="+fault)
	}
	cmd.Env = env
	cmd.Stderr = os.Stderr
	remote.BindLifetime(cmd)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	w := &Worker{ID: id, cmd: cmd}
	t.Cleanup(func() { w.Kill() })

	addrCh := make(chan string, 1)
	go func() {
		var addr string
		fmt.Fscanf(stdout, "ready %s\n", &addr)
		addrCh <- addr
		// Keep draining so the child never blocks on a full pipe.
		buf := make([]byte, 4096)
		for {
			if _, err := stdout.Read(buf); err != nil {
				return
			}
		}
	}()
	select {
	case addr := <-addrCh:
		if addr == "" {
			t.Fatalf("worker %d exited before printing its ready line", id)
		}
		w.Addr = addr
	case <-time.After(15 * time.Second):
		t.Fatalf("worker %d printed no ready line within 15s", id)
	}
	return w
}

// Kill ends the worker with SIGKILL — the external analogue of the
// crash fault: no response, no cleanup, no exit hooks.
func (w *Worker) Kill() { w.Stop(syscall.SIGKILL) }

// Stop sends sig to the worker and waits for it to exit. Stopping an
// already-stopped worker is a no-op.
func (w *Worker) Stop(sig os.Signal) {
	if w.cmd.Process != nil && w.cmd.ProcessState == nil {
		w.cmd.Process.Signal(sig)
		w.cmd.Wait()
	}
}

// Fleet starts n healthy workers and returns them with their addresses,
// for -worker-addrs style (dialed) coordinator tests.
func Fleet(t testing.TB, n int) ([]*Worker, []string) {
	t.Helper()
	var ws []*Worker
	var addrs []string
	for i := 1; i <= n; i++ {
		w := StartWorker(t, i, "")
		ws = append(ws, w)
		addrs = append(addrs, w.Addr)
	}
	return ws, addrs
}

// FaultEnv renders the PoolOptions.Env entry arming fault spec on
// worker id of a spawned fleet. Invalid specs panic at arm time, not
// deep inside a subprocess.
func FaultEnv(id int, spec string) string {
	if _, err := remote.ParseFault(spec); err != nil {
		panic(err)
	}
	return fmt.Sprintf("DJ_FAULT_W%d=%s", id, spec)
}
