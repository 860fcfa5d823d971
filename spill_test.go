// Cross-backend conformance for disk-backed dedup: a -target-mem-mb
// budget must change where dedup index state lives (RAM vs sorted runs /
// LSH partitions / the streaming signature index's LSM set on disk)
// without changing a single exported byte, on either backend.
package repro_test

import (
	"path/filepath"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/format"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/stream"
)

// spillConformanceRecipe pairs the shared-index exact dedup (DiskSet path
// on the stream backend, sorted runs on batch) with the
// minhash barrier (partitioned on-disk LSH on both backends).
func spillConformanceRecipe(workDir string, targetMemMB int, spill bool) *config.Recipe {
	r := config.Default()
	r.ProjectName = "spill-conformance"
	r.UseCache = false
	r.WorkDir = workDir
	r.TargetMemMB = targetMemMB
	r.DedupSpill = spill
	r.Process = []config.OpSpec{
		{Name: "whitespace_normalization_mapper"},
		{Name: "document_deduplicator"},
		{Name: "document_minhash_deduplicator"},
	}
	return r
}

func runSpillBatch(t *testing.T, r *config.Recipe, input string) ([]byte, *core.Executor) {
	t.Helper()
	exec, err := core.NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	data, err := format.Load(input)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := exec.Run(data)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	if err := format.Export(out, path); err != nil {
		t.Fatal(err)
	}
	return readAll(t, path), exec
}

// TestSpillCrossBackendConformance: a 12k-doc corpus against a 1 MiB
// memory target — far below what the resident dedup indexes would need —
// must export byte-for-byte what the unbudgeted in-memory run exports,
// from the batch executor and the streaming engine alike, while the
// budgeted ops demonstrably push index state to disk.
func TestSpillCrossBackendConformance(t *testing.T) {
	d := corpus.Web(corpus.Options{Docs: 12000, Seed: 20260808, DupExact: 0.25, DupNear: 0.1})
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(input); err != nil {
		t.Fatal(err)
	}

	// Reference: spilling disabled, everything in memory.
	ref, _ := runSpillBatch(t, spillConformanceRecipe(t.TempDir(), 0, false), input)

	// Batch under the budget.
	got, exec := runSpillBatch(t, spillConformanceRecipe(t.TempDir(), 1, true), input)
	if string(got) != string(ref) {
		t.Fatalf("batch export changed under the spill budget: %d vs %d bytes", len(got), len(ref))
	}
	spilled := 0
	for _, n := range exec.Plan().Nodes {
		if n.SpillBudget <= 0 {
			continue
		}
		if sp, ok := n.Op.(ops.Spiller); ok && sp.SpillStats().Spilled {
			spilled++
		}
	}
	if spilled == 0 {
		t.Fatal("no budgeted op reported spilling — the corpus no longer exceeds the budget")
	}

	// Streaming under the same budget: the exact dedup runs against its
	// disk-backed signature set, minhash as a spilled barrier.
	streamRecipe := spillConformanceRecipe(t.TempDir(), 1, true)
	eng, err := stream.New(streamRecipe, stream.Options{ShardSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	src, err := stream.OpenSource(input, 256)
	if err != nil {
		t.Fatal(err)
	}
	sink, err := stream.NewShardedJSONLSink(filepath.Join(t.TempDir(), "stream"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(src, sink); err != nil {
		t.Fatal(err)
	}
	streamBytes := readAll(t, sink.Paths()...)
	if string(streamBytes) != string(ref) {
		t.Fatalf("stream export changed under the spill budget: %d vs %d bytes",
			len(streamBytes), len(ref))
	}
}
