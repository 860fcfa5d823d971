// Package spill provides bounded-memory external data structures for the
// deduplication operators: sorted runs with k-way external merge (exact
// dedup), a disk-backed signature set for the streaming shared index, and
// a partitioned on-disk LSH bucket table (minhash / simhash / vector).
//
// All structures share one binary columnar frame format ("DJS1"): a
// 16-byte header followed by a keys column and an optional values column,
// both little-endian uint64. Encoding and decoding go through pooled
// buffers, mirroring the hand-rolled JSONL codec on the sample hot path.
// Every structure accounts the runs and bytes it writes so callers can
// surface spill activity as metrics and journal events, and removes its
// files on Close.
package spill

import (
	"os"
	"sync/atomic"
)

// Config locates and bounds one spill-capable structure. BudgetBytes is
// the in-memory ceiling the structure must respect; Dir is where runs and
// partitions are written (created on demand).
type Config struct {
	Dir         string
	BudgetBytes int64
}

// Stats reports what a structure actually wrote. Runs counts spill files
// (sorted runs, set runs, LSH partitions); Bytes is the total bytes
// written to disk. Both stay zero when everything fit in memory.
type Stats struct {
	Runs  int64
	Bytes int64
}

// Pair is one (key, value) record: a signature or bucket key paired with
// a document index.
type Pair struct{ K, V uint64 }

// counters is the shared atomic stats block embedded by each structure.
type counters struct {
	runs  atomic.Int64
	bytes atomic.Int64
}

func (c *counters) account(n int64) {
	c.runs.Add(1)
	c.bytes.Add(n)
}

func (c *counters) snapshot() Stats {
	return Stats{Runs: c.runs.Load(), Bytes: c.bytes.Load()}
}

// mix is the partition/fingerprint mixer (splitmix64 finalizer). It keeps
// partition assignment decorrelated from the callers' own key hashing.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ensureDir creates dir (and parents) if needed.
func ensureDir(dir string) error { return os.MkdirAll(dir, 0o755) }

// createRun opens a fresh uniquely-named spill file in dir.
func createRun(dir, pattern string) (*os.File, error) {
	if err := ensureDir(dir); err != nil {
		return nil, err
	}
	return os.CreateTemp(dir, pattern)
}

// removeAll deletes the given files, ignoring not-exist errors.
func removeAll(paths []string) {
	for _, p := range paths {
		if p != "" {
			os.Remove(p)
		}
	}
}
