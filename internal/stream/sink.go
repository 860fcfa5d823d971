package stream

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/sample"
)

// Sink consumes processed shards. The engine calls Consume in shard
// order, exactly once per surviving shard, then Close once after the
// last shard.
type Sink interface {
	Consume(d *dataset.Dataset) error
	Close() error
}

// ShardedJSONLSink writes each consumed shard to its own JSONL file as
// soon as it arrives, so output disk pressure tracks the stream instead
// of accumulating in memory. Because the total shard count is unknown
// until the stream ends, shards are first written as
// "<prefix>-NNNNN.jsonl.part" and atomically renamed to the final
// "<prefix>-NNNNN-of-MMMMM.jsonl" layout on Close, which a directory
// load (format.Load) reads back in order. Empty shards are skipped.
type ShardedJSONLSink struct {
	prefix string
	parts  []string
	paths  []string
	closed bool
}

// NewShardedJSONLSink creates the output directory and returns a sink
// writing files under the given path prefix (typically the export path
// with its ".jsonl" extension trimmed).
func NewShardedJSONLSink(pathPrefix string) (*ShardedJSONLSink, error) {
	if pathPrefix == "" {
		return nil, fmt.Errorf("stream: empty sink path prefix")
	}
	if dir := filepath.Dir(pathPrefix); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	return &ShardedJSONLSink{prefix: pathPrefix}, nil
}

// Consume writes one shard to its ".part" file.
func (s *ShardedJSONLSink) Consume(d *dataset.Dataset) error {
	if s.closed {
		return fmt.Errorf("stream: sink already closed")
	}
	if d.Len() == 0 {
		return nil
	}
	part := fmt.Sprintf("%s-%05d.jsonl.part", s.prefix, len(s.parts))
	if err := d.SaveJSONL(part); err != nil {
		return err
	}
	s.parts = append(s.parts, part)
	return nil
}

// Close renames every ".part" file to the final -NNNNN-of-MMMMM layout,
// then removes shard files left under the same prefix by previous runs
// (a re-run with a different shard count must not leave a mixed
// generation behind the "<prefix>-*.jsonl" glob).
func (s *ShardedJSONLSink) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	stale := s.existingShardFiles()
	n := len(s.parts)
	for i, part := range s.parts {
		final := fmt.Sprintf("%s-%05d-of-%05d.jsonl", s.prefix, i, n)
		if err := os.Rename(part, final); err != nil {
			return err
		}
		s.paths = append(s.paths, final)
	}
	fresh := make(map[string]bool, len(s.paths))
	for _, p := range s.paths {
		fresh[p] = true
	}
	for _, old := range stale {
		if !fresh[old] {
			os.Remove(old)
		}
	}
	return nil
}

// existingShardFiles lists this prefix's shard output from earlier runs:
// finalized -NNNNN-of-MMMMM.jsonl shards and orphaned .part files.
func (s *ShardedJSONLSink) existingShardFiles() []string {
	var out []string
	for _, pattern := range []string{
		s.prefix + "-[0-9][0-9][0-9][0-9][0-9]-of-[0-9][0-9][0-9][0-9][0-9].jsonl",
		s.prefix + "-[0-9][0-9][0-9][0-9][0-9].jsonl.part",
	} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			continue
		}
		out = append(out, matches...)
	}
	current := make(map[string]bool, len(s.parts))
	for _, p := range s.parts {
		current[p] = true
	}
	var stale []string
	for _, m := range out {
		if !current[m] {
			stale = append(stale, m)
		}
	}
	return stale
}

// Paths returns the final shard files, valid after Close.
func (s *ShardedJSONLSink) Paths() []string { return s.paths }

// CollectSink accumulates every shard in memory — for tests, probes, and
// callers that want the batch-style full dataset back. It forfeits the
// engine's bounded-memory property.
type CollectSink struct {
	samples []*sample.Sample
}

// Consume appends the shard's samples.
func (c *CollectSink) Consume(d *dataset.Dataset) error {
	c.samples = append(c.samples, d.Samples...)
	return nil
}

// Close is a no-op.
func (c *CollectSink) Close() error { return nil }

// Dataset returns everything consumed so far, in stream order.
func (c *CollectSink) Dataset() *dataset.Dataset { return dataset.New(c.samples) }

// DiscardSink drops shards after they are counted: for runs that only
// want the report (no export path configured).
type DiscardSink struct{}

// Consume drops the shard.
func (DiscardSink) Consume(*dataset.Dataset) error { return nil }

// Close is a no-op.
func (DiscardSink) Close() error { return nil }
