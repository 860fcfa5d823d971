package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"testing"
	"time"

	"repro/internal/disttest"
	"repro/internal/remote"
)

// workerPIDs lists the live processes whose command line names a worker
// directory under workDir. Exited-but-unreaped processes have an empty
// command line, so they never match.
func workerPIDs(t *testing.T, workDir string) []int {
	t.Helper()
	needle := []byte(filepath.Join(workDir, "workers") + string(filepath.Separator))
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	var pids []int
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		cmdline, err := os.ReadFile(filepath.Join("/proc", e.Name(), "cmdline"))
		if err == nil && bytes.Contains(cmdline, needle) {
			pids = append(pids, pid)
		}
	}
	return pids
}

// requireNoWorkers fails unless every worker of the run under workDir
// is gone within a second, and kills any survivors either way.
func requireNoWorkers(t *testing.T, workDir string) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for {
		pids := workerPIDs(t, workDir)
		if len(pids) == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, pid := range pids {
				syscall.Kill(pid, syscall.SIGKILL)
			}
			t.Fatalf("workers %v outlived the coordinator by more than 1s", pids)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func djprocess(t *testing.T, workDir string, env []string, args ...string) *exec.Cmd {
	cmd := exec.Command(disttest.ProcessBin(t), args...)
	cmd.Env = append(append(os.Environ(), "DJ_WORK_DIR="+workDir), env...)
	// A test binary killed by -timeout or a panic must not leave
	// djprocess (and through it its workers) running.
	remote.BindLifetime(cmd)
	// Surviving workers would hold the output pipes open; stop waiting on
	// them shortly after djprocess itself exits.
	cmd.WaitDelay = 100 * time.Millisecond
	return cmd
}

// TestWorkersDieWithCoordinator: however a -workers run ends, its
// spawned workers end with it.
func TestWorkersDieWithCoordinator(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the parent-death signal and /proc are Linux-only")
	}
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}

	t.Run("error exit", func(t *testing.T) {
		// The export path is rejected only after the fleet is up.
		wd := t.TempDir()
		cmd := djprocess(t, wd, nil, "-builtin", "minimal-clean",
			"-input", "hub:web-en?docs=200&seed=1",
			"-output", filepath.Join(wd, "out.json"), "-workers", "2")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("run with a non-.jsonl export succeeded:\n%s", out)
		}
		for _, w := range []string{"w1", "w2"} {
			if _, err := os.Stat(filepath.Join(wd, "workers", w)); err != nil {
				t.Fatalf("worker %s never started: %v\n%s", w, err, out)
			}
		}
		requireNoWorkers(t, wd)
	})

	t.Run("SIGKILL mid-stream", func(t *testing.T) {
		// Worker 1 hangs on its first stage, so the run is still in
		// flight when the coordinator is killed.
		wd := t.TempDir()
		cmd := djprocess(t, wd, []string{"DJ_FAULT_W1=hang"}, "-builtin", "minimal-clean",
			"-input", "hub:web-en?docs=2000&seed=1",
			"-output", filepath.Join(wd, "out.jsonl"), "-workers", "2")
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer cmd.Process.Kill()
		deadline := time.Now().Add(15 * time.Second)
		for len(workerPIDs(t, wd)) < 2 {
			if time.Now().After(deadline) {
				t.Fatal("fleet never came up")
			}
			time.Sleep(20 * time.Millisecond)
		}
		// Configure writes each worker's journal; once one exists, stages
		// are being dispatched.
		for {
			if js, _ := filepath.Glob(filepath.Join(wd, "workers", "w1", "journal", "*")); len(js) > 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("fleet never configured")
			}
			time.Sleep(20 * time.Millisecond)
		}
		cmd.Process.Kill()
		cmd.Wait()
		requireNoWorkers(t, wd)
	})
}
