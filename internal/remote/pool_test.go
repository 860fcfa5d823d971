package remote_test

import (
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/dataset"
	"repro/internal/disttest"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/remote"
	"repro/internal/sample"
)

// TestPoolCloseIsPrompt runs the whole fleet lifecycle — spawn,
// configure, one stage, Close — repeatedly. Close must never wait out
// its SIGTERM grace, which a connection left open in the shared
// transport's idle pool would otherwise cause.
func TestPoolCloseIsPrompt(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	bin := disttest.WorkerBin(t)
	r := config.Default()
	r.UseCache = false
	r.UseProfiles = false
	r.Process = []config.OpSpec{
		{Name: "whitespace_normalization_mapper"},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 2}},
	}
	p, err := plan.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]*sample.Sample, 64)
	for i := range samples {
		samples[i] = sample.New("a  few   words of text")
	}
	d := dataset.New(samples)

	for i := 0; i < 20; i++ {
		pool, err := remote.NewPool(remote.PoolOptions{Workers: 2, WorkerBin: bin, WorkDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Configure(r, p, "close", nil); err != nil {
			pool.Close()
			t.Fatal(err)
		}
		if _, _, _, err := pool.RunStage(i, 0, len(p.Nodes), d); err != nil {
			pool.Close()
			t.Fatal(err)
		}
		start := time.Now()
		pool.Close()
		if took := time.Since(start); took >= 200*time.Millisecond {
			t.Errorf("iteration %d: Close took %s, want < 200ms", i, took)
		}
	}
}
