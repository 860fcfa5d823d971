// Command bench is the repository's benchmark: it builds djprocess and
// djworker, runs them end to end over seeded corpora with tracing off,
// and replays each workload once in-process with a span around every
// layer boundary. README.md has the metric and workload tables.
//
//	go run ./bench                                   every workload, both sections, a table on stdout
//	go run ./bench -workload stream_web -trace 0     one workload, end-to-end metrics as one JSON line
//	go run ./bench -workload stream_web -trace 1     one workload, per-layer metrics as one JSON line
//	go run ./bench -compare old.json new.json        delta table between two record files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print its metrics as one JSON line (default: run all and print a table)")
		seed    = flag.Int64("seed", 1, "corpus seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "length of each workload's timed window")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced round")
		scale   = flag.Float64("scale", 1, "corpus size multiplier")
		out     = flag.String("out", "", "record file (default "+buildDir+"/record.json under the module root)")
		compare = flag.Bool("compare", false, "compare two record files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two record files: old.json new.json"))
		}
		regressed, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	ws := workloads
	if *name != "" {
		w, err := findWorkload(*name)
		if err != nil {
			fatal(err)
		}
		ws = []workload{w}
	}
	sections := []bool{false, true}
	if *name != "" {
		sections = []bool{*trace != 0}
	}
	rec, err := run(ws, sections, *seed, *scale, *seconds, *out)
	if err != nil {
		fatal(err)
	}
	if *name == "" {
		rec.printTable(os.Stdout)
	} else {
		// The driver's contract: the last line of stdout is the result.
		line, err := json.Marshal(rec.lastOutcome)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !rec.correct() {
		fatal(fmt.Errorf("an export differed from its reference or a run failed"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// record is the file one benchmark run leaves: who measured what, where,
// and every number with the spread beside it.
type record struct {
	Schema    int                        `json:"schema"`
	Commit    string                     `json:"commit"`
	Seed      int64                      `json:"seed"`
	Scale     float64                    `json:"scale"`
	Seconds   float64                    `json:"seconds"`
	Host      host                       `json:"host"`
	Workloads map[string]*workloadRecord `json:"workloads"`

	lastOutcome *outcome
}

// workloadRecord holds a workload's two sections. End-to-end numbers come
// only from runs with tracing off.
type workloadRecord struct {
	// Reference is the export every run of the workload had to reproduce.
	Reference export          `json:"reference"`
	EndToEnd  *endToEndRecord `json:"end_to_end,omitempty"`
	PerLayer  *perLayerRecord `json:"per_layer,omitempty"`
}

type endToEndRecord struct {
	Tracing   string             `json:"tracing"` // always "off"
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FailRatio float64            `json:"fail_ratio"`
	Metrics   map[string]summary `json:"metrics"`
}

type perLayerRecord struct {
	Tracing string  `json:"tracing"` // always "on"
	Correct bool    `json:"correct"`
	TopOp   string  `json:"ops.top_op"`
	Metrics metrics `json:"metrics"`
	Spans   []span  `json:"spans"`
}

type host struct {
	HardwareThreads int     `json:"hardware_threads"`
	Undersized      bool    `json:"undersized"`
	GOMAXPROCS      int     `json:"GOMAXPROCS"`
	GoVersion       string  `json:"go_version"`
	CPUModel        string  `json:"cpu_model"`
	Kernel          string  `json:"kernel"`
	BuildS          float64 `json:"build_s"`
}

func hostInfo(build time.Duration) host {
	h := host{
		HardwareThreads: runtime.NumCPU(), // affinity-aware, as nproc is
		GOMAXPROCS:      np,
		GoVersion:       runtime.Version(),
		BuildS:          build.Seconds(),
	}
	h.Undersized = h.HardwareThreads < np
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(raw))
	}
	return h
}

// run measures the given workloads in the given sections (false = end to
// end with tracing off, true = the traced round) and writes the record.
// Every file it creates is under one scratch directory, removed on return.
func run(ws []workload, traced []bool, seed int64, scale, seconds float64, out string) (*record, error) {
	// No DJ_* override may leak from the caller's environment into the
	// recipes the harness loads or the programs it starts.
	for _, kv := range os.Environ() {
		if k, _, _ := strings.Cut(kv, "="); strings.HasPrefix(k, "DJ_") {
			os.Unsetenv(k)
		}
	}
	runtime.GOMAXPROCS(np)

	root, err := moduleRoot()
	if err != nil {
		return nil, err
	}
	binDir, build, err := buildBinaries(root)
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(filepath.Join(root, buildDir), "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	// An interrupted run leaves nothing behind either. The terminal sends
	// the signal to the whole process group, so the children end with us.
	interrupted := make(chan os.Signal, 1)
	signal.Notify(interrupted, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(interrupted)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-interrupted:
			os.RemoveAll(scratch)
			os.Exit(1)
		case <-done:
		}
	}()

	rec := &record{
		Schema: 1, Commit: gitCommit(root), Seed: seed, Scale: scale, Seconds: seconds,
		Host: hostInfo(build), Workloads: map[string]*workloadRecord{},
	}
	if rec.Host.Undersized {
		fmt.Fprintf(os.Stderr, "bench: host has %d hardware thread(s), fewer than the %d the workloads use: timings are not comparable with a full-size host\n",
			rec.Host.HardwareThreads, np)
	}
	s := settings{Seed: seed, Scale: scale, Seconds: seconds, BinDir: binDir, Scratch: scratch}
	for _, w := range ws {
		wr := &workloadRecord{}
		rec.Workloads[w.Name] = wr
		for _, tr := range traced {
			measure := endToEnd
			if tr {
				measure = perLayer
			}
			o, err := measure(s, w)
			if err != nil {
				return nil, err
			}
			rec.lastOutcome, wr.Reference = o, o.Reference
			if tr {
				wr.PerLayer = &perLayerRecord{Tracing: "on", Correct: o.Correct, TopOp: o.TopOp, Metrics: o.Metrics, Spans: o.Spans}
			} else {
				wr.EndToEnd = &endToEndRecord{Tracing: "off", Attempted: o.Attempted, Failed: o.Failed,
					FailRatio: float64(o.Failed) / float64(o.Attempted), Metrics: o.Samples}
			}
		}
	}
	// The same recipe over the same corpus through either engine: one export.
	if b, st := rec.Workloads["batch_web"], rec.Workloads["stream_web"]; b != nil && st != nil && b.Reference != st.Reference {
		return nil, fmt.Errorf("batch_web and stream_web references differ: %+v vs %+v", b.Reference, st.Reference)
	}
	if out == "" {
		out = filepath.Join(root, buildDir, "record.json")
	}
	raw, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return nil, err
	}
	return rec, os.WriteFile(out, append(raw, '\n'), 0o644)
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit(root string) string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func (r *record) correct() bool {
	for _, w := range r.Workloads {
		if w.EndToEnd != nil && w.EndToEnd.Failed > 0 {
			return false
		}
		if w.PerLayer != nil && !w.PerLayer.Correct {
			return false
		}
	}
	return true
}

// printTable prints every metric of every workload by name with its unit.
func (r *record) printTable(out io.Writer) {
	for _, w := range workloads {
		wr := r.Workloads[w.Name]
		if wr == nil {
			continue
		}
		if e := wr.EndToEnd; e != nil {
			fmt.Fprintf(out, "\n%s  end to end, tracing off: %d runs, %d failed, fail_ratio %g\n", w.Name, e.Attempted, e.Failed, e.FailRatio)
			for _, name := range sortedKeys(e.Metrics) {
				s := e.Metrics[name]
				fmt.Fprintf(out, "  %-28s %14.4f %-10s  n %-4d between %d rounds: q1 %.4f  q3 %.4f  min %.4f  max %.4f\n",
					name, s.Median, s.Unit, s.N, len(s.Rounds), s.Q1, s.Q3, s.Min, s.Max)
			}
		}
		if p := wr.PerLayer; p != nil {
			fmt.Fprintf(out, "%s  per layer, traced round (top op: %s)\n", w.Name, p.TopOp)
			for _, name := range sortedKeys(p.Metrics) {
				fmt.Fprintf(out, "  %-28s %14.4f %s\n", name, p.Metrics[name].Value, p.Metrics[name].Unit)
			}
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
