package main

import (
	"bytes"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/format"
	"repro/internal/plan"
	"repro/internal/sample"
	"repro/internal/spill"
	"repro/internal/stream"
	"repro/internal/telemetry"
)

// headDocs bounds the documents the direct-call measurements run over:
// the workload's first 20k lines, enough to amortise warm-up and small
// enough to stay inside one benchmark window.
const headDocs = 20000

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// loadHead reads the first limit documents of a corpus file back through
// the format layer, decoded and as the JSONL lines they were written as,
// for the direct-call layer measurements.
func loadHead(in corpusFile, limit int) (*dataset.Dataset, [][]byte, error) {
	src, err := format.OpenSource(in.Path)
	if err != nil {
		return nil, nil, err
	}
	defer src.Close()
	samples, err := format.ReadBatch(src, nil, limit)
	if err != nil {
		return nil, nil, err
	}
	lines := make([][]byte, len(samples))
	for i, s := range samples {
		if lines[i], err = s.AppendJSON(nil); err != nil {
			return nil, nil, err
		}
	}
	return dataset.New(samples), lines, nil
}

// mallocs counts the heap objects fn allocates. The harness runs nothing
// else while it measures, so the process-wide counter is fn's own.
func mallocs(fn func()) (allocs uint64, took time.Duration) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	took = time.Since(start)
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, took
}

// sampleLayer times the JSONL codec by calling it directly: decode with
// format.SampleFromJSON (what every source does per line), encode with
// Sample.AppendJSON (what every sink and export does per document).
func sampleLayer(m metrics, lines [][]byte) error {
	n := float64(len(lines))
	decoded := make([]*sample.Sample, len(lines))
	var err error
	allocs, took := mallocs(func() {
		for i, line := range lines {
			if decoded[i], err = format.SampleFromJSON(line); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("sample.decode_ns_per_doc", float64(took.Nanoseconds())/n, "ns/doc")
	m.set("sample.decode_allocs_per_doc", float64(allocs)/n, "allocs/doc")

	buf := make([]byte, 0, 1<<16)
	allocs, took = mallocs(func() {
		for _, s := range decoded {
			if buf, err = s.AppendJSON(buf[:0]); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	m.set("sample.encode_ns_per_doc", float64(took.Nanoseconds())/n, "ns/doc")
	m.set("sample.encode_allocs_per_doc", float64(allocs)/n, "allocs/doc")
	return nil
}

// cacheLayer times one Store.Put and one Store.Get of the workload's input
// head, the op-chain cache's unit of work.
func cacheLayer(m metrics, head *dataset.Dataset, dir string) error {
	store, err := cache.NewStore(dir, "")
	if err != nil {
		return err
	}
	key := cache.Key(head.Fingerprint(), "bench", nil)
	start := time.Now()
	if err := store.Put(key, head); err != nil {
		return err
	}
	m.set("cache.put_s", time.Since(start).Seconds(), "s")
	start = time.Now()
	if _, _, err := store.Get(key); err != nil {
		return err
	}
	m.set("cache.get_s", time.Since(start).Seconds(), "s")
	return nil
}

// spillLayer probes a DiskSet the way the shared signature index does: one
// AddBatch per shard, a quarter of the signatures repeats. The budget is
// the slice of -target-mem-mb the planner gave the workload's first dedup
// op; a workload with no memory target gets a budget it never reaches, so
// the same call measures the in-memory path.
func spillLayer(m metrics, p *plan.Plan, docs int, seed int64, dir string) error {
	budget := int64(1 << 30)
	for _, n := range p.Nodes {
		if n.SpillBudget > 0 {
			budget = n.SpillBudget
			break
		}
	}
	rng := rand.New(rand.NewSource(seed))
	sigs := make([]uint64, docs)
	for i := range sigs {
		if i > 0 && rng.Intn(4) == 0 {
			sigs[i] = sigs[rng.Intn(i)]
		} else {
			sigs[i] = rng.Uint64()
		}
	}
	set := spill.NewDiskSet(dir, budget)
	defer set.Close()
	novel := make([]bool, stream.DefaultShardSize)
	start := time.Now()
	for lo := 0; lo < len(sigs); lo += len(novel) {
		batch := sigs[lo:min(lo+len(novel), len(sigs))]
		if err := set.AddBatch(batch, novel[:len(batch)]); err != nil {
			return err
		}
	}
	m.set("spill.probe_ns_per_sig", float64(time.Since(start).Nanoseconds())/float64(len(sigs)), "ns/sig")
	return nil
}

// distLayer times the DJF2 frame codec alone, shard by shard: what the
// coordinator pays to put a stage on the wire and to take a full-frame
// answer off it, without the HTTP round trip or the remote ops.
func distLayer(m metrics, head *dataset.Dataset) error {
	var encode, decode time.Duration
	var buf bytes.Buffer
	for lo := 0; lo < head.Len(); lo += stream.DefaultShardSize {
		shard := dataset.New(head.Samples[lo:min(lo+stream.DefaultShardSize, head.Len())])
		buf.Reset()
		start := time.Now()
		if _, _, err := dist.WriteFrame2(&buf, dist.RunHeader{Shard: lo, Samples: shard.Len()}, shard, false); err != nil {
			return err
		}
		encode += time.Since(start)

		start = time.Now()
		fr := dist.NewFrame2Reader(&buf)
		var hdr dist.RunHeader
		if err := fr.Header(&hdr); err != nil {
			return err
		}
		if _, err := fr.Body(); err != nil {
			return err
		}
		decode += time.Since(start)
	}
	m.set("dist.encode_s", encode.Seconds(), "s")
	m.set("dist.decode_s", decode.Seconds(), "s")
	return nil
}

// procLayer times process start-up, the floor under every wall_s:
// djprocess -list-ops loads the binary, registers every operator and exits.
func procLayer(m metrics, binDir string) error {
	var walls []float64
	for i := 0; i < 5; i++ {
		cmd := exec.Command(filepath.Join(binDir, "djprocess"), "-list-ops")
		cmd.Env = []string{"PATH=" + os.Getenv("PATH")}
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return err
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	m.set("proc.startup_s", median(walls), "s")
	return nil
}

// tracedMetrics turns one traced round into the per-layer metrics. Every
// name is set for every workload; a layer the workload does not reach
// reports 0.
func tracedMetrics(m metrics, t *tracedRun, in corpusFile) (topOp string, err error) {
	tr := t.tr
	wall := tr.spans[t.root-1].dur().Seconds()
	engine := tr.spans[t.engine-1]
	runS := engine.dur().Seconds()

	readS := sum(tr.durations("format.read"))
	m.set("format.read_s", readS, "s")
	m.set("format.read_mb_per_s", float64(in.RawBytes)/1e6/readS, "MB/s")
	m.set("format.docs_in", float64(t.docsIn), "docs")
	m.set("format.bytes_in", float64(in.RawBytes), "bytes")
	m.set("format.export_s", sum(tr.durations("format.export")), "s")

	// Ops: the report's per-op durations, put on one CPU-time basis the way
	// profile persistence does (Duration x Workers). Cache hits ran nothing.
	var busy, opWall, topBusy float64
	byKind := map[string]float64{}
	hits := 0
	for _, st := range t.opStats {
		if st.CacheHit {
			hits++
			continue
		}
		b := st.Duration.Seconds() * float64(max(st.Workers, 1))
		busy += b
		opWall += st.Duration.Seconds()
		byKind[core.OpKind(t.plan.Nodes[st.PlanIndex].Op)] += b
		if b > topBusy {
			topBusy, topOp = b, st.Name
		}
	}
	m.set("ops.busy_s", busy, "s")
	m.set("ops.mapper_s", byKind["mapper"], "s")
	m.set("ops.filter_s", byKind["filter"], "s")
	m.set("ops.dedup_s", byKind["deduplicator"], "s")
	m.set("ops.top_op_share", ratio(topBusy, busy), "ratio")
	m.set("ops.docs_in", float64(t.docsIn), "docs")
	m.set("ops.docs_out", float64(t.docsOut), "docs")

	// The engine is one or the other; the other's times are 0.
	var coreLoad, coreRun, coreSelf, streamRun, streamSource float64
	if t.batch != nil {
		coreLoad, coreRun, coreSelf = readS, runS, runS-opWall
	} else {
		streamRun, streamSource = runS, readS
	}
	m.set("core.load_s", coreLoad, "s")
	m.set("core.run_s", coreRun, "s")
	m.set("core.self_s", coreSelf, "s")
	m.set("core.cache_hit_ops", float64(hits), "count")

	m.set("stream.run_s", streamRun, "s")
	m.set("stream.source_s", streamSource, "s")
	m.set("stream.sink_s", sum(tr.durations("stream.sink")), "s")
	var shardBusy []float64
	var shards, resumed int
	if t.stream != nil {
		shards, resumed = t.stream.ShardCount, t.stream.ResumedShards
		for _, sh := range t.stream.Shards {
			shardBusy = append(shardBusy, sh.Duration.Seconds())
		}
	}
	m.set("stream.shards", float64(shards), "count")
	m.set("stream.resumed_shards", float64(resumed), "count")
	m.set("stream.shard_p50_ms", median(shardBusy)*1e3, "ms")
	m.set("stream.shard_max_ms", maxOf(shardBusy)*1e3, "ms")
	m.set("stream.parallelism", ratio(sum(shardBusy), streamRun), "ratio")
	idle := 0.0
	if streamRun > 0 {
		idle = 1 - sum(shardBusy)/(np*streamRun)
	}
	m.set("stream.idle_share", idle, "ratio")

	// The journal the run wrote, read back the way djanalyze reads it.
	events, err := telemetry.ReadJournal(t.journal)
	if err != nil {
		return "", err
	}
	var indexWaits, indexWaitNS, spillRuns, spillBytes int64
	for _, e := range events {
		switch e.Type {
		case telemetry.EvIndex:
			indexWaits += e.Waits
			indexWaitNS += e.DurNS
		case telemetry.EvSpill:
			spillRuns += e.SpillRuns
			spillBytes += e.Bytes
		}
	}
	m.set("stream.index_waits", float64(indexWaits), "count")
	m.set("stream.index_wait_s", float64(indexWaitNS)/1e9, "s")
	m.set("spill.runs", float64(spillRuns), "count")
	m.set("spill.bytes", float64(spillBytes), "bytes")
	st, err := os.Stat(t.journal)
	if err != nil {
		return "", err
	}
	m.set("telemetry.journal_events", float64(len(events)), "count")
	m.set("telemetry.journal_bytes", float64(st.Size()), "bytes")

	cacheBytes := int64(0)
	// NewStore would create the directory a cache-less run never made.
	cacheDir := filepath.Join(t.workDir, "cache")
	if _, err := os.Stat(cacheDir); err == nil {
		store, err := cache.NewStore(cacheDir, "")
		if err != nil {
			return "", err
		}
		if cacheBytes, err = store.SizeOnDisk(); err != nil {
			return "", err
		}
	}
	m.set("cache.bytes_on_disk", float64(cacheBytes), "bytes")

	var ds dist.RunStats
	if t.stream != nil && t.stream.Dist != nil {
		ds = *t.stream.Dist
	}
	m.set("dist.bytes_sent", float64(ds.BytesSent), "bytes")
	m.set("dist.bytes_recv", float64(ds.BytesRecv), "bytes")
	m.set("dist.raw_bytes_sent", float64(ds.RawBytesSent), "bytes")
	m.set("dist.raw_bytes_recv", float64(ds.RawBytesRecv), "bytes")
	m.set("dist.delta_stages", float64(ds.DeltaStages), "count")
	m.set("dist.retries", float64(ds.Retries), "count")
	m.set("dist.steals", float64(ds.Steals), "count")
	m.set("dist.fallbacks", float64(ds.Fallbacks), "count")

	stages := tr.durations("remote.stage")
	m.set("remote.spawn_s", sum(tr.durations("remote.spawn"))+sum(tr.durations("remote.configure")), "s")
	m.set("remote.stage_calls", float64(len(stages)), "count")
	m.set("remote.stage_s", sum(tr.durations("remote.stage")), "s")
	m.set("remote.stage_p50_ms", median(stages)*1e3, "ms")
	m.set("remote.stage_max_ms", maxOf(stages)*1e3, "ms")
	m.set("remote.close_s", sum(tr.durations("remote.close")), "s")

	// Coverage: how much of the traced wall the outside-in view can name.
	// Named is everything outside the round's and the engine's own self
	// time, plus the op time the report attributes inside the engine
	// (dispatched ops are already inside remote.stage spans). What is left
	// - cache and checkpoint writes, gate and queue waits, index probes -
	// is what tracing inside the program has to explain.
	engineSelf := tr.self(t.engine).Seconds()
	local := busy
	if ds.Workers != nil {
		local = byKind["deduplicator"]
	}
	named := wall - tr.self(t.root).Seconds() - engineSelf + min(engineSelf, local/np)
	m.set("trace.coverage", ratio(named, wall), "ratio")
	return topOp, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
