// Engine-independent dedup lineage: the tracer's duplicate pairs carry
// op-input ordinals, so a batch run, streaming runs cut into shards of
// any size, and a djworker fleet must journal the same pairs for the
// same recipe and input — not only export the same bytes.
package repro_test

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/dataset"
	"repro/internal/disttest"
	"repro/internal/format"
	_ "repro/internal/ops/all"
	"repro/internal/remote"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// jitterSizeSource cuts a dataset into shards of seeded pseudo-random
// sizes (1 to 60 samples), so shard boundaries land anywhere relative
// to the duplicates.
type jitterSizeSource struct {
	d    *dataset.Dataset
	rng  *rand.Rand
	pos  int
	next int
}

func (s *jitterSizeSource) Next() (*stream.Shard, error) {
	if s.pos >= s.d.Len() {
		return nil, io.EOF
	}
	hi := min(s.pos+1+s.rng.Intn(60), s.d.Len())
	sh := &stream.Shard{Index: s.next, Data: dataset.New(s.d.Samples[s.pos:hi])}
	s.pos = hi
	s.next++
	return sh, nil
}

func (s *jitterSizeSource) Close() error { return nil }

// dedupLineage is one deduplicator's journaled lineage, folded over
// every trace event the run wrote for it.
type dedupLineage struct {
	in, out int64
	pairs   []trace.DupPair // sorted by DroppedIdx
}

// foldDedupLineage folds the journal's deduplicator trace events per op:
// counts sum, and the dup pairs of every event (one per shard in a
// streaming run) merge in dropped-ordinal order.
func foldDedupLineage(t *testing.T, journal string) map[string]*dedupLineage {
	t.Helper()
	events, err := telemetry.ReadJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]*dedupLineage{}
	for _, ev := range events {
		if ev.Type != telemetry.EvTrace || ev.Kind != "deduplicator" {
			continue
		}
		l := out[ev.Name]
		if l == nil {
			l = &dedupLineage{}
			out[ev.Name] = l
		}
		l.in += ev.In
		l.out += ev.Out
		if raw, ok := ev.Attrs["dup_pairs"]; ok {
			b, err := json.Marshal(raw)
			if err != nil {
				t.Fatal(err)
			}
			var pairs []trace.DupPair
			if err := json.Unmarshal(b, &pairs); err != nil {
				t.Fatal(err)
			}
			l.pairs = append(l.pairs, pairs...)
		}
	}
	for _, l := range out {
		slices.SortFunc(l.pairs, func(a, b trace.DupPair) int { return a.DroppedIdx - b.DroppedIdx })
	}
	return out
}

// TestDedupLineageMatchesAcrossEngines runs the dedup bench recipe with
// tracing on four ways — batch, -stream at np 1 and 4 over jittered
// shard sizes and completion order, and a 2-worker fleet — and holds
// each deduplicator's in/out counts, its first MaxPerOp
// (dropped_idx, kept_idx) pairs and the export SHA-256 equal to batch.
func TestDedupLineageMatchesAcrossEngines(t *testing.T) {
	base, err := config.Load("bench/recipes/dedup.yaml")
	if err != nil {
		t.Fatal(err)
	}
	base.EnableTrace = true
	base.UseCache = false
	d := corpus.Web(corpus.Options{Docs: 1500, Seed: 20261019, DupExact: 0.25, DupNear: 0.05})
	input := filepath.Join(t.TempDir(), "input.jsonl")
	if err := d.SaveJSONL(input); err != nil {
		t.Fatal(err)
	}
	maxPerOp := trace.New(0).MaxPerOp()

	type result struct {
		sha     [32]byte
		lineage map[string]*dedupLineage
	}
	run := func(name string, np int, exec func(r *config.Recipe, data *dataset.Dataset, tele *telemetry.Run) []byte) result {
		t.Helper()
		r := *base
		r.NP = np
		r.WorkDir = t.TempDir()
		tele, err := telemetry.NewRun(telemetry.RunOptions{JournalDir: t.TempDir(), RunID: "lineage-" + name})
		if err != nil {
			t.Fatal(err)
		}
		tele.Begin(name, "dedup", input, 0)
		data, err := format.Load(input)
		if err != nil {
			t.Fatal(err)
		}
		export := exec(&r, data, tele)
		tele.End("ok", 0, 0, nil, nil)
		if err := tele.Close(); err != nil {
			t.Fatal(err)
		}
		return result{sha: sha256.Sum256(export), lineage: foldDedupLineage(t, tele.JournalPath())}
	}
	batch := func(r *config.Recipe, data *dataset.Dataset, tele *telemetry.Run) []byte {
		exec, err := core.NewExecutor(r)
		if err != nil {
			t.Fatal(err)
		}
		exec.EnableTelemetry(tele)
		out, _, err := exec.Run(data)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "batch.jsonl")
		if err := format.Export(out, path); err != nil {
			t.Fatal(err)
		}
		return readAll(t, path)
	}
	streamed := func(seed int64, pool *remote.Pool) func(*config.Recipe, *dataset.Dataset, *telemetry.Run) []byte {
		return func(r *config.Recipe, data *dataset.Dataset, tele *telemetry.Run) []byte {
			opts := stream.Options{ShardDelay: jitterDelay(seed), Telemetry: tele}
			if pool != nil {
				opts.Dispatch = pool // a nil *remote.Pool must not become a non-nil interface
			}
			eng, err := stream.New(r, opts)
			if err != nil {
				t.Fatal(err)
			}
			if pool != nil {
				if err := pool.Configure(r, eng.Plan(), tele.ID(), tele); err != nil {
					t.Fatal(err)
				}
			}
			sink, err := stream.NewShardedJSONLSink(filepath.Join(t.TempDir(), "out"))
			if err != nil {
				t.Fatal(err)
			}
			src := &jitterSizeSource{d: data, rng: rand.New(rand.NewSource(seed))}
			rep, err := eng.Run(src, sink)
			if err != nil {
				t.Fatal(err)
			}
			if pool != nil && (rep.Dist == nil || rep.Dist.Fallbacks != 0) {
				t.Fatalf("fleet run did not dispatch to its workers: %+v", rep.Dist)
			}
			return readAll(t, sink.Paths()...)
		}
	}

	ref := run("batch", 2, batch)
	if l := ref.lineage["document_deduplicator"]; l == nil || len(l.pairs) < maxPerOp {
		t.Fatalf("batch journaled too few exact dup pairs to compare: %+v", l)
	}
	type arm struct {
		name string
		np   int
		exec func(*config.Recipe, *dataset.Dataset, *telemetry.Run) []byte
	}
	arms := []arm{
		{"stream-np1", 1, streamed(1, nil)},
		{"stream-np4", 4, streamed(2, nil)},
	}
	if !testing.Short() {
		pool, err := remote.NewPool(remote.PoolOptions{
			Workers:   2,
			WorkerBin: disttest.WorkerBin(t),
			WorkDir:   t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { pool.Close() })
		arms = append(arms, arm{"fleet-2", 2, streamed(3, pool)})
	}
	for _, arm := range arms {
		got := run(arm.name, arm.np, arm.exec)
		if got.sha != ref.sha {
			t.Errorf("%s: export SHA-256 %x, batch %x", arm.name, got.sha, ref.sha)
		}
		for op, want := range ref.lineage {
			l := got.lineage[op]
			if l == nil {
				t.Errorf("%s: no trace events for %s", arm.name, op)
				continue
			}
			if l.in != want.in || l.out != want.out {
				t.Errorf("%s: %s in/out %d/%d, batch %d/%d", arm.name, op, l.in, l.out, want.in, want.out)
			}
			n := min(maxPerOp, len(want.pairs))
			if len(l.pairs) < n {
				t.Errorf("%s: %s journaled %d dup pairs, batch %d", arm.name, op, len(l.pairs), n)
				continue
			}
			if g, w := ordinals(l.pairs[:n]), ordinals(want.pairs[:n]); g != w {
				t.Errorf("%s: %s dup pairs (dropped_idx, kept_idx)\n got  %s\n want %s", arm.name, op, g, w)
				continue
			}
			// The texts agree wherever the engine had them at hand.
			for i, p := range l.pairs[:n] {
				if w := want.pairs[i]; p.Dropped != w.Dropped || p.Kept != "" && p.Kept != w.Kept {
					t.Errorf("%s: %s pair %d texts differ from batch", arm.name, op, i)
				}
			}
		}
	}
}

// ordinals renders dup pairs as their (dropped_idx, kept_idx) list.
func ordinals(pairs []trace.DupPair) string {
	s := ""
	for _, p := range pairs {
		s += fmt.Sprintf("(%d,%d) ", p.DroppedIdx, p.KeptIdx)
	}
	return s
}
