// Package repro is a from-scratch Go reproduction of "Data-Juicer: A
// One-Stop Data Processing System for Large Language Models" (SIGMOD
// 2024): a recipe-driven pipeline that loads heterogeneous corpora into
// a unified sample representation, runs a standardized pool of Mapper /
// Filter / Deduplicator operators over them, and exports the refined
// data — with operator fusion, caching, checkpoints, lineage tracing,
// and analyzer probes as described in the paper.
//
// # Unified planner
//
// One logical→physical plan layer (internal/plan) serves both
// execution backends: the recipe's op list runs through an ordered pass
// pipeline — validate, predict (measured cost/selectivity from the
// per-recipe profile sidecar, static CostHint ranks on cold starts),
// measured-cost reordering of commutative filter groups, context-
// sharing fusion, streaming capability placement, and cache-boundary
// annotation. Every successful run persists its measurements
// (dist.SaveProfiles), so the next run of the same recipe plans from
// what the previous run observed. djprocess -explain renders the plan
// with per-op predictions and per-pass provenance; docs/recipes.md has
// the walkthrough and sidecar format.
//
// # Execution backends
//
// Two engines run the same recipe over the same physical plan:
//
//   - Batch (internal/core.Executor): the whole dataset is resident and
//     moves through one operator at a time with parallel workers. Peak
//     memory is O(corpus). Richest feature set — probes, disk-space
//     analysis, whole-dataset cache chains.
//
//   - Streaming (internal/stream.Engine): the input is partitioned into
//     shards that flow through the full operator chain in a pipelined
//     worker pool — shard K can be in op 3 while shard K+1 is in op 1 —
//     with peak memory O(shards in flight). JSONL inputs are read
//     incrementally; output shards are written as they complete.
//     Shard-local ops stream freely, signature deduplicators run
//     against a shared index without a barrier, and similarity
//     deduplicators act as declared barriers (merge, apply, re-shard).
//     Both backends share the per-op application logic (core.OpRunner)
//     and the op-chain walk (core.Walk) — and with it cache and
//     checkpoint resume — so kept-sample sets are identical, a contract
//     enforced by the randomized cross-backend conformance suite
//     (conformance_test.go).
//
// # Unified ingestion and mixing
//
// Both backends read inputs through one incremental interface
// (internal/format.Source): jsonl/json/csv/tsv/txt/md/html/code files,
// transparent gzip decompression, directories, globs, and "hub:"
// synthetic corpora, all unified into the sample representation.
// Record-oriented formats read with bounded buffers; whole-document
// formats (txt/md/html/code) are bounded by the largest single file,
// since the whole file is one sample. Weighted multi-source mixing ("mix:" specs,
// recipe "sources:" lists) interleaves corpora deterministically by
// weight with per-sample provenance tags in meta.source, so mixed
// multi-format inputs run on either backend with byte-identical
// exports. The complete recipe-key and input-spec reference is
// docs/recipes.md; the generated operator table is
// internal/ops/README.md.
//
// The streaming pipeline has a fixed shape for the whole run: the
// recipe's np workers, a static shard size (-shard-size), and a gate
// bounding the shards in flight, which applies backpressure at the
// source. The plan adapts to measurements between runs through the
// planner's profile sidecar.
//
// # Zero-allocation hot path
//
// The per-sample inner loop shared by both backends is built to avoid
// allocating in steady state: execution is batch-granular
// (dataset.MapBatches / FilterBatches, shards as batches, fused-filter
// counters flushed once per batch), tokenization reuses per-worker
// scratch buffers through the sample's typed context slots
// (text.Segmenter, substring tokens, rolling n-gram hashes), per-sample
// statistics live in a compact interned-key table (sample.Stats) rather
// than a boxed map, and the JSONL wire format has a hand-rolled
// encode/decode fast path that is byte-identical to encoding/json.
// docs/performance.md describes the architecture, the profiling flags
// (djprocess -cpuprofile/-memprofile), and the captured before/after
// numbers (BENCH_hotpath.json); allocation budgets are pinned by
// regression tests in hotpath_test.go.
//
// Choose batch for corpora that fit comfortably in RAM or when probe
// analysis is wanted; choose streaming (djprocess -stream) for corpora
// larger than RAM or when output should appear incrementally; add
// -target-mem-mb when the dedup indexes must fit a memory budget. See
// the README architecture section for the full comparison.
//
// The implementation lives under internal/; runnable entry points are
// cmd/djprocess, cmd/djanalyze, cmd/djbench and examples/.
package repro
