package main

import (
	"embed"
	"fmt"
	"math"
	"slices"
)

// The recipes are pinned copies: a later edit to a built-in recipe must
// not silently change what the benchmark measures.
//
//go:embed recipes/*.yaml
var recipeFS embed.FS

// workload is one row of the table in README.md: which djprocess
// invocation runs over which seeded corpus. Every knob here reaches the
// program only as a generated file or a command-line flag.
type workload struct {
	Name   string
	Recipe string // file under recipes/
	// Args are the djprocess flags beyond -recipe/-input/-output.
	Args []string
	// Docs is the corpus size at -scale 1, chosen so one invocation
	// takes about 0.5-0.9 s on a 2-hardware-thread host (see README.md
	// for why it is not the 2.5-8 s the issue first aimed at).
	Docs              int
	DupExact, DupNear float64
	Gzip              bool
	// Resume times a re-run over the work directory a cold run of the
	// same command left behind.
	Resume bool
}

// np is the worker count every recipe pins and the GOMAXPROCS every
// measured process runs under, the harness's traced round included.
const np = 2

// Shard sizes scale with the corpus: the web corpus is ~8x smaller than a
// user's, so the default 512-sample shard would leave 3 shards for 2
// workers. 128 keeps the shard count (and so the tail imbalance) near
// what the default gives on a 12k-doc corpus.
var workloads = []workload{
	{Name: "batch_web", Recipe: "web.yaml", Docs: 1600},
	{Name: "batch_web_resume", Recipe: "web_resume.yaml", Docs: 1600, Resume: true},
	{Name: "stream_web", Recipe: "web.yaml", Docs: 1600, Args: []string{"-stream", "-shard-size", "128"}},
	{Name: "stream_io_gz", Recipe: "io.yaml", Docs: 40000, Gzip: true, Args: []string{"-stream"}},
	{Name: "stream_dedup_mem", Recipe: "dedup.yaml", Docs: 10000, DupExact: 0.25, DupNear: 0.05, Args: []string{"-stream"}},
	{Name: "stream_dedup_spill", Recipe: "dedup.yaml", Docs: 10000, DupExact: 0.25, DupNear: 0.05, Args: []string{"-stream", "-target-mem-mb", "1"}},
	{Name: "dist_filter", Recipe: "filter.yaml", Docs: 12000, Args: []string{"-workers", "2"}},
	{Name: "dist_mapper", Recipe: "mapper.yaml", Docs: 12000, Args: []string{"-workers", "2"}},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// docs is the corpus size at the given scale, never below a size that
// still gives every engine more than one shard's worth of work to do.
func (w workload) docs(scale float64) int {
	return max(64, int(math.Round(float64(w.Docs)*scale)))
}

// argValue returns the value following flag in the workload's djprocess
// arguments ("" when absent), so the traced round reads its shard size,
// worker count and memory target from the same list the binary gets.
func (w workload) argValue(flag string) string {
	if i := slices.Index(w.Args, flag); i >= 0 && i+1 < len(w.Args) {
		return w.Args[i+1]
	}
	return ""
}

// sharded reports whether the invocation runs the streaming engine, which
// exports numbered shard files instead of the named file.
func (w workload) sharded() bool { return w.hasArg("-stream") || w.hasArg("-workers") }

func (w workload) hasArg(flag string) bool { return slices.Contains(w.Args, flag) }
