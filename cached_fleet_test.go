package repro_test

import (
	"testing"

	"repro/internal/config"
	"repro/internal/ops"
	"repro/internal/plan"
	"repro/internal/stream"
)

// TestDistributedCachedResume runs a djworker fleet with the shard cache
// on. A cold run fills the cache from one side (in-process stream or a
// 2-worker fleet) and a re-run over the same work dir reads it from the
// other: the fleet must resume what local runs stored (the per-op
// prefix) and local runs must resume what the fleet stored (the
// stage-final entry). Every export equals the uncached reference and on
// the re-run every cacheable shard-local op is served from the cache.
func TestDistributedCachedResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns worker subprocesses")
	}
	input := chaosInput(t)
	const shardSize = 40
	recipe := func(useCache bool) *config.Recipe {
		r := config.Default()
		r.ProjectName = "cached-fleet"
		r.UseCache = useCache
		// A cold run's profiles would reorder the re-run's filter group
		// and with it the cache chain; this test is about resume, not
		// about re-planning.
		r.UseProfiles = false
		r.Process = []config.OpSpec{
			{Name: "fix_unicode_mapper"},
			{Name: "clean_links_mapper"},
			{Name: "whitespace_normalization_mapper"},
			{Name: "word_num_filter", Params: ops.Params{"min_num": 3}},
			{Name: "text_length_filter", Params: ops.Params{"min_len": 20}},
			{Name: "document_deduplicator"},
			{Name: "document_minhash_deduplicator"},
		}
		r.WorkDir = t.TempDir()
		return r
	}

	want, _, err := runStreamOnce(t, recipe(false), input, shardSize, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Build(recipe(true))
	if err != nil {
		t.Fatal(err)
	}
	var cached []int
	for i := range p.Nodes {
		if p.Nodes[i].Capability == plan.ShardLocal && p.Nodes[i].StreamCacheable {
			cached = append(cached, i)
		}
	}
	if len(cached) < 2 {
		t.Fatalf("recipe plans %d cacheable shard-local ops, want a run of at least 2", len(cached))
	}

	local := func(r *config.Recipe) ([]byte, *stream.Report) {
		got, rep, err := runStreamOnce(t, r, input, shardSize, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return got, rep
	}
	dispatched := func(r *config.Recipe) ([]byte, *stream.Report) {
		got, rep := runDistStream(t, r, input, 2, shardSize, nil)
		if rep.Dist == nil || rep.Dist.Fallbacks != 0 {
			t.Fatalf("dispatched run fell back to in-process execution: %+v", rep.Dist)
		}
		return got, rep
	}
	for _, tc := range []struct {
		name        string
		cold, rerun func(*config.Recipe) ([]byte, *stream.Report)
	}{
		{"local_then_dispatched", local, dispatched},
		{"dispatched_then_local", dispatched, local},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := recipe(true)
			got, coldRep := tc.cold(r)
			if string(got) != string(want) {
				t.Fatalf("cold run export diverges from the uncached reference: %d vs %d bytes", len(got), len(want))
			}
			if coldRep.ResumedShards != 0 {
				t.Fatalf("cold run resumed %d shards from an empty cache", coldRep.ResumedShards)
			}
			got, rep := tc.rerun(r)
			if string(got) != string(want) {
				t.Fatalf("re-run export diverges from the uncached reference: %d vs %d bytes", len(got), len(want))
			}
			for _, i := range cached {
				st := rep.OpStats[i]
				if !st.CacheHit {
					t.Errorf("re-run op %d (%s) was not served from the cache", i, st.Name)
				}
			}
			// The first cached op's entry count is known on either side;
			// a prefix resume also keeps every later op's counts exact.
			first := cached[0]
			if rep.OpStats[first].InCount != coldRep.OpStats[first].InCount {
				t.Errorf("op %d in-count %d on the re-run, %d cold", first,
					rep.OpStats[first].InCount, coldRep.OpStats[first].InCount)
			}
			last := cached[len(cached)-1]
			if rep.OpStats[last].OutCount != coldRep.OpStats[last].OutCount {
				t.Errorf("op %d out-count %d on the re-run, %d cold", last,
					rep.OpStats[last].OutCount, coldRep.OpStats[last].OutCount)
			}
			if tc.name == "local_then_dispatched" {
				for _, i := range cached {
					if rep.OpStats[i].InCount != coldRep.OpStats[i].InCount || rep.OpStats[i].OutCount != coldRep.OpStats[i].OutCount {
						t.Errorf("op %d counts %d/%d on the re-run, %d/%d cold", i,
							rep.OpStats[i].InCount, rep.OpStats[i].OutCount,
							coldRep.OpStats[i].InCount, coldRep.OpStats[i].OutCount)
					}
				}
			}
		})
	}
}
