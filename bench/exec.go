package main

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/corpus"
)

// buildDir is where everything the benchmark leaves behind lives,
// relative to the module root: the built binaries (kept between runs so
// `go build` only relinks when a source changed) and one scratch
// directory per run, removed on exit. The root .gitignore names it.
const buildDir = ".bench_build"

// moduleRoot walks up from the working directory to the go.mod, so the
// harness works from the repository root (`go run ./bench`) and from its
// own directory (`go test`).
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
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// buildBinaries builds the programs users run, djprocess and the
// djworker it spawns from its own directory, and returns the directory
// holding them and how long the build took.
func buildBinaries(root string) (binDir string, took time.Duration, err error) {
	binDir = filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", 0, err
	}
	start := time.Now()
	cmd := exec.Command("go", "build", "-o", binDir+string(filepath.Separator), "./cmd/djprocess", "./cmd/djworker")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", 0, fmt.Errorf("go build: %v\n%s", err, out)
	}
	return binDir, time.Since(start), nil
}

// corpusFile is one materialised input: the file the program reads plus
// what the harness needs to turn a wall time into a rate.
type corpusFile struct {
	Path     string
	Docs     int
	RawBytes int64 // uncompressed JSONL bytes
}

// writeCorpus generates the workload's seeded web-en corpus and writes it
// as JSONL (gzip-compressed for the io workload). The program under test
// sees only this file.
func writeCorpus(w workload, seed int64, scale float64, dir string) (corpusFile, error) {
	d := corpus.Web(corpus.Options{Docs: w.docs(scale), Seed: seed, DupExact: w.DupExact, DupNear: w.DupNear})
	cf := corpusFile{Path: filepath.Join(dir, "corpus.jsonl"), Docs: d.Len()}
	if w.Gzip {
		cf.Path += ".gz"
	}
	f, err := os.Create(cf.Path)
	if err != nil {
		return cf, err
	}
	defer f.Close()
	cw := &countingWriter{w: f}
	var zw *gzip.Writer
	if w.Gzip {
		zw, _ = gzip.NewWriterLevel(f, gzip.BestSpeed) // the level is a valid constant
		cw.w = zw
	}
	if err := d.WriteJSONL(cw); err != nil {
		return cf, err
	}
	if zw != nil {
		if err := zw.Close(); err != nil {
			return cf, err
		}
	}
	cf.RawBytes = cw.n
	return cf, f.Close()
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeRecipe copies the pinned recipe into the run's scratch directory.
func writeRecipe(w workload, dir string) (string, error) {
	raw, err := recipeFS.ReadFile("recipes/" + w.Recipe)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, w.Recipe)
	return path, os.WriteFile(path, raw, 0o644)
}

// procRun is what one djprocess invocation cost, as its parent sees it.
type procRun struct {
	Wall   time.Duration
	CPU    time.Duration // user+sys of the process tree
	RSSMB  float64       // ru_maxrss: the largest single process of the tree
	Export export
}

// resetPeakRSS makes the harness small before it starts a child. Linux
// folds the peak RSS of the address space a process is started from into
// the new process's ru_maxrss, so a harness that has just held a corpus
// in memory would report its own peak as every child's. Returning freed
// memory to the system and writing 5 to /proc/self/clear_refs resets the
// harness's peak to what it holds now, which is less than any djprocess
// run holds (both link the same operators; the child also loads data).
// Where /proc does not allow it the run goes on, and says what
// peak_rss_mb then means.
func resetPeakRSS() {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		warnPeakRSS.Do(func() {
			fmt.Fprintf(os.Stderr, "bench: cannot reset the harness's peak RSS (%v): peak_rss_mb is no lower than the harness's own peak\n", err)
		})
	}
}

var warnPeakRSS sync.Once

// runDJProcess execs the real binary once, exec to exit, with a clean
// environment: GOMAXPROCS pinned, DJ_WORK_DIR pointing at workDir, no
// other DJ_* override. CPU and peak RSS come from the child's wait4
// rusage, which folds in the djworkers it spawned and reaped.
func runDJProcess(binDir string, w workload, recipe string, in corpusFile, workDir, outDir string) (procRun, error) {
	if err := os.RemoveAll(outDir); err != nil {
		return procRun{}, err
	}
	out := filepath.Join(outDir, "out.jsonl")
	args := append([]string{"-recipe", recipe, "-input", in.Path, "-output", out}, w.Args...)
	cmd := exec.Command(filepath.Join(binDir, "djprocess"), args...)
	cmd.Env = []string{
		"PATH=" + os.Getenv("PATH"),
		"GOMAXPROCS=" + strconv.Itoa(np),
		"DJ_WORK_DIR=" + workDir,
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	resetPeakRSS()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return procRun{}, fmt.Errorf("djprocess %v: %v\n%s", args, err, stderr.Bytes())
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	ex, err := digestExport(out, w.sharded())
	return procRun{
		Wall:   wall,
		CPU:    cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(),
		RSSMB:  float64(ru.Maxrss) / 1024, // Linux reports KiB
		Export: ex,
	}, err
}

// export identifies one run's output: the SHA-256 of its bytes and its
// document count. Two runs agree exactly when their exports are equal.
type export struct {
	Digest string `json:"sha256"`
	Docs   int    `json:"docs"`
}

// digestExport hashes a run's export. The streaming engine writes
// out-NNNNN-of-MMMMM.jsonl shard files instead of the named file; they
// are hashed concatenated in shard order, which is what `cat out-*.jsonl`
// gives a user.
func digestExport(path string, sharded bool) (export, error) {
	paths := []string{path}
	if sharded {
		var err error
		paths, err = filepath.Glob(path[:len(path)-len(".jsonl")] + "-*-of-*.jsonl")
		if err != nil {
			return export{}, err
		}
		sort.Strings(paths)
	}
	h := sha256.New()
	docs := 0
	buf := make([]byte, 1<<16)
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return export{}, err
		}
		for {
			n, err := f.Read(buf)
			h.Write(buf[:n])
			docs += bytes.Count(buf[:n], []byte{'\n'})
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return export{}, err
			}
		}
		f.Close()
	}
	return export{Digest: hex.EncodeToString(h.Sum(nil)), Docs: docs}, nil
}
