package repro_test

import (
	"errors"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ops"
	"repro/internal/sample"
)

// Crash recovery with use_checkpoint and the cache off: a failed run
// leaves the latest committed op output of each op chain in
// <work_dir>/checkpoint, and the re-run of the same recipe resumes from
// it — on the batch executor and on the streaming engine alike.

// bangArmed arms bang_once_mapper: while set, its third Process call
// since the arming fails (and disarms), the stand-in for a transient
// crash in the middle of an op. bangMapped counts, per input text, the
// samples the mapper actually mapped.
var (
	bangArmed  atomic.Bool
	bangCalls  atomic.Int64
	bangMu     sync.Mutex
	bangMapped = map[string]int{}
)

func armBang() {
	bangCalls.Store(0)
	bangMu.Lock()
	clear(bangMapped)
	bangMu.Unlock()
	bangArmed.Store(true)
}

// bangMapper appends "!" to the text, in place like every mapper.
type bangMapper struct{}

func (bangMapper) Name() string { return "bang_once_mapper" }
func (bangMapper) Process(s *sample.Sample) error {
	if bangCalls.Add(1) == 3 && bangArmed.CompareAndSwap(true, false) {
		return errors.New("injected transient failure")
	}
	bangMu.Lock()
	bangMapped[s.Text]++
	bangMu.Unlock()
	s.Text += "!"
	return nil
}

// probeDir is the checkpoint directory ckpt_probe_mapper counts, and
// probeSeen records, per probe tag, the entry count at each call.
var (
	probeDir  string
	probeMu   sync.Mutex
	probeSeen = map[string][]int{}
)

// probeMapper changes nothing; it counts the states on disk when it runs,
// which is after the previous op's output was committed.
type probeMapper struct{ tag string }

func (probeMapper) Name() string { return "ckpt_probe_mapper" }
func (p probeMapper) Process(*sample.Sample) error {
	n := len(checkpointEntries(probeDir))
	probeMu.Lock()
	probeSeen[p.tag] = append(probeSeen[p.tag], n)
	probeMu.Unlock()
	return nil
}

func init() {
	ops.Register("bang_once_mapper", ops.CategoryMapper, "test", func(ops.Params) (ops.OP, error) {
		return bangMapper{}, nil
	})
	ops.Register("ckpt_probe_mapper", ops.CategoryMapper, "test", func(p ops.Params) (ops.OP, error) {
		return probeMapper{tag: p.String("tag", "")}, nil
	})
}

// checkpointEntries lists the committed states in dir.
func checkpointEntries(dir string) []string {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	return paths
}

func checkpointRecipe(t *testing.T, names ...string) *config.Recipe {
	t.Helper()
	r := config.Default()
	r.ProjectName = "checkpoint"
	r.UseCache = false
	r.UseCheckpoint = true
	r.UseProfiles = false
	r.OpFusion = false
	r.NP = 1
	r.WorkDir = t.TempDir()
	for _, n := range names {
		spec := config.OpSpec{Name: n}
		if tag, ok := strings.CutPrefix(n, "ckpt_probe_mapper:"); ok {
			spec = config.OpSpec{Name: "ckpt_probe_mapper", Params: ops.Params{"tag": tag}}
		}
		r.Process = append(r.Process, spec)
	}
	return r
}

func texts(d *dataset.Dataset) string {
	var b strings.Builder
	for _, s := range d.Samples {
		b.WriteString(s.Text)
		b.WriteByte(' ')
	}
	return b.String()
}

// TestCheckpointResumeBatchMapperFailure: the mapper fails on the third
// of four samples, after mapping two of them in place. The resumed run
// starts from the last whole op output (the normalized input), so every
// sample is mapped exactly once in the export.
func TestCheckpointResumeBatchMapperFailure(t *testing.T) {
	r := checkpointRecipe(t, "whitespace_normalization_mapper", "bang_once_mapper")
	in := func() *dataset.Dataset { return dataset.FromTexts([]string{"a", "b", "c", "d"}) }
	armBang()
	e, err := core.NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(in()); err == nil || !strings.Contains(err.Error(), "injected transient failure") {
		t.Fatalf("first run: err = %v, want the injected failure", err)
	}
	if n := len(checkpointEntries(filepath.Join(r.WorkDir, "checkpoint"))); n != 1 {
		t.Fatalf("failed run left %d states, want 1", n)
	}
	e2, err := core.NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	out, rep, err := e2.Run(in())
	if err != nil {
		t.Fatal(err)
	}
	if got := texts(out); got != "a! b! c! d! " {
		t.Fatalf("resumed export = %q, want \"a! b! c! d! \"", got)
	}
	if len(rep.OpStats) != 2 || !rep.OpStats[0].CacheHit || rep.OpStats[1].CacheHit {
		t.Fatalf("resumed report = %+v, want the mapper resumed and bang_once_mapper executed", rep.OpStats)
	}
}

// TestCheckpointResumeStreamMapperFailure: with shards of 2, the first
// shard's stage output is committed before the mapper fails in the
// second; the re-run resumes the first shard and maps only the second, so
// no sample is mapped twice across the two runs.
func TestCheckpointResumeStreamMapperFailure(t *testing.T) {
	r := checkpointRecipe(t, "bang_once_mapper")
	input := filepath.Join(t.TempDir(), "in.jsonl")
	if err := dataset.FromTexts([]string{"a", "b", "c", "d"}).SaveJSONL(input); err != nil {
		t.Fatal(err)
	}
	armBang()
	if _, _, err := runStreamOnce(t, r, input, 2, nil, nil); err == nil || !strings.Contains(err.Error(), "injected transient failure") {
		t.Fatalf("first run: err = %v, want the injected failure", err)
	}
	got, rep, err := runStreamOnce(t, r, input, 2, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"text":"a!"}` + "\n" + `{"text":"b!"}` + "\n" + `{"text":"c!"}` + "\n" + `{"text":"d!"}` + "\n"
	if string(got) != want {
		t.Fatalf("resumed export = %q, want %q", got, want)
	}
	bangMu.Lock()
	defer bangMu.Unlock()
	for _, s := range []string{"a", "b", "c", "d"} {
		if bangMapped[s] != 1 {
			t.Errorf("sample %q mapped %d times across both runs, want 1", s, bangMapped[s])
		}
	}
	if rep.ResumedShards != 1 {
		t.Errorf("resumed shards = %d, want 1", rep.ResumedShards)
	}
}

// TestCheckpointKeepsLatestStatePerChain: a checkpoint-only store holds
// exactly one state per op chain once the chain's first op has committed
// — never the states it superseded — and none after the run succeeds. A
// batch run is one chain. In -stream each shard's cacheable stage is its
// own chain, so a probe in shard s also sees the final states of the s
// shards before it.
func TestCheckpointKeepsLatestStatePerChain(t *testing.T) {
	names := []string{"ckpt_probe_mapper:first", "whitespace_normalization_mapper", "ckpt_probe_mapper:mid",
		"lowercase_mapper", "ckpt_probe_mapper:last"}
	docs := []string{"Alpha  one", "Beta two", "Gamma  three", "Delta four", "Epsilon five", "Zeta six"}
	const shardSize = 2

	// check compares every probe call with the states expected on disk:
	// the earlier chains' finals, plus this chain's latest once its first
	// op has committed.
	check := func(t *testing.T, finished func(call int) int) {
		t.Helper()
		probeMu.Lock()
		defer probeMu.Unlock()
		if len(probeSeen) != 3 {
			t.Fatalf("%d probes ran, want 3", len(probeSeen))
		}
		for tag, seen := range probeSeen {
			for call, n := range seen {
				want := finished(call)
				if tag != "first" {
					want++
				}
				if n != want {
					t.Errorf("probe %s call %d saw %d states on disk, want %d", tag, call, n, want)
				}
			}
		}
		if left := checkpointEntries(probeDir); len(left) != 0 {
			t.Errorf("a successful run left %d states: %v", len(left), left)
		}
	}
	reset := func(r *config.Recipe) {
		probeMu.Lock()
		clear(probeSeen)
		probeMu.Unlock()
		probeDir = filepath.Join(r.WorkDir, "checkpoint")
	}

	t.Run("batch", func(t *testing.T) {
		r := checkpointRecipe(t, names...)
		reset(r)
		e, err := core.NewExecutor(r)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Run(dataset.FromTexts(docs)); err != nil {
			t.Fatal(err)
		}
		check(t, func(int) int { return 0 })
	})
	t.Run("stream", func(t *testing.T) {
		r := checkpointRecipe(t, names...)
		reset(r)
		input := filepath.Join(t.TempDir(), "in.jsonl")
		if err := dataset.FromTexts(docs).SaveJSONL(input); err != nil {
			t.Fatal(err)
		}
		if _, _, err := runStreamOnce(t, r, input, shardSize, nil, nil); err != nil {
			t.Fatal(err)
		}
		check(t, func(call int) int { return call / shardSize })
	})
	// With shards in flight at once the chains interleave. A chain
	// between a Put and the Delete of the state it supersedes briefly
	// holds two, so a probe (its own chain at an op boundary) may see one
	// extra state per other shard in flight.
	t.Run("stream-np4", func(t *testing.T) {
		r := checkpointRecipe(t, names...)
		r.NP = 4
		reset(r)
		input := filepath.Join(t.TempDir(), "in.jsonl")
		if err := dataset.FromTexts(docs).SaveJSONL(input); err != nil {
			t.Fatal(err)
		}
		if _, _, err := runStreamOnce(t, r, input, shardSize, nil, nil); err != nil {
			t.Fatal(err)
		}
		probeMu.Lock()
		defer probeMu.Unlock()
		for tag, seen := range probeSeen {
			for call, n := range seen {
				chains := len(docs) / shardSize
				if limit := chains + min(r.NP, chains) - 1; n > limit {
					t.Errorf("probe %s call %d saw %d states for %d chains, want at most %d", tag, call, n, chains, limit)
				}
			}
		}
		if left := checkpointEntries(probeDir); len(left) != 0 {
			t.Errorf("a successful run left %d states: %v", len(left), left)
		}
	})
}
