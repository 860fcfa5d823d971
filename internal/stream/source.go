package stream

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/format"
	"repro/internal/sample"
)

// Shard is one partition of the dataset moving through the engine.
type Shard struct {
	// Index is the shard's position in source order (0-based, dense).
	Index int
	// Data holds the shard's samples.
	Data *dataset.Dataset
}

// Source produces the input shards of a streaming run, in order.
type Source interface {
	// Next returns the next shard, or io.EOF when the input is exhausted.
	Next() (*Shard, error)
	// Close releases underlying resources.
	Close() error
}

// SampleSource slices a format.Source — the unified incremental reader
// behind every input spec (jsonl/json/csv/tsv/txt/md/html/code files,
// gzip variants, directories, globs, hub: corpora, mix: mixtures) — into
// shards of shardSize samples. The underlying reader holds a bounded
// buffer, so peak memory stays O(shards in flight) whatever the input
// format; both backends decode through the same format layer, so they
// see identical samples for the same spec.
type SampleSource struct {
	src       format.Source
	shardSize int
	next      int
	done      bool
}

// NewSampleSource wraps src as a source of shardSize-sample shards.
func NewSampleSource(src format.Source, shardSize int) (*SampleSource, error) {
	if shardSize <= 0 {
		return nil, fmt.Errorf("stream: shard size must be positive, got %d", shardSize)
	}
	return &SampleSource{src: src, shardSize: shardSize}, nil
}

// Next returns the next shard of up to shardSize samples, filled
// batch-granularly from the reader (one pre-sized slice per shard, no
// append growth, and the reader's batch path amortizes per-sample
// dispatch).
func (ss *SampleSource) Next() (*Shard, error) {
	if ss.done {
		return nil, io.EOF
	}
	samples := make([]*sample.Sample, 0, ss.shardSize)
	for len(samples) < ss.shardSize {
		var err error
		n := len(samples)
		samples, err = format.ReadBatch(ss.src, samples, ss.shardSize-len(samples))
		if err == io.EOF {
			ss.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stream: %w", err)
		}
		if len(samples) == n {
			ss.done = true
			break
		}
	}
	if len(samples) == 0 {
		return nil, io.EOF
	}
	sh := &Shard{Index: ss.next, Data: dataset.New(samples)}
	ss.next++
	return sh, nil
}

// Close closes the underlying reader.
func (ss *SampleSource) Close() error { return ss.src.Close() }

// DatasetSource shards an in-memory dataset: used by the engine to
// re-shard after a pipeline barrier. Shards alias the dataset's samples;
// they are not copied.
type DatasetSource struct {
	d         *dataset.Dataset
	shardSize int
	pos       int
	next      int
}

// NewDatasetSource wraps d as a source of shardSize-sample shards.
func NewDatasetSource(d *dataset.Dataset, shardSize int) (*DatasetSource, error) {
	if shardSize <= 0 {
		return nil, fmt.Errorf("stream: shard size must be positive, got %d", shardSize)
	}
	return &DatasetSource{d: d, shardSize: shardSize}, nil
}

// Next returns the next contiguous slice of the dataset.
func (ds *DatasetSource) Next() (*Shard, error) {
	if ds.pos >= ds.d.Len() {
		return nil, io.EOF
	}
	hi := ds.pos + ds.shardSize
	if hi > ds.d.Len() {
		hi = ds.d.Len()
	}
	sh := &Shard{Index: ds.next, Data: dataset.New(ds.d.Samples[ds.pos:hi])}
	ds.pos = hi
	ds.next++
	return sh, nil
}

// Close is a no-op for in-memory sources.
func (ds *DatasetSource) Close() error { return nil }

// OpenSource resolves a dataset spec — every form format.OpenSource
// accepts, including "mix:" weighted mixtures and gzip-compressed
// multi-format files — into a streaming shard source. File-backed specs
// read incrementally; hub: corpora are generated in memory and sharded.
func OpenSource(spec string, shardSize int) (Source, error) {
	fs, err := format.OpenSource(spec)
	if err != nil {
		return nil, err
	}
	return NewSampleSource(fs, shardSize)
}
