package spill

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
)

const (
	maxPartitions = 4096
	minPartitions = 2
)

// pairBytes is the in-memory footprint of one buffered Pair.
const pairBytes = 16

// sortPairs orders records by (key, value).
func sortPairs(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		if c := cmp.Compare(a.K, b.K); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
}

// LSH is a bucket table for locality-sensitive-hash candidate
// generation: callers Add (bucketKey, docIndex) records during the
// feature pass, then ForEachPartition visits every partition's records
// sorted by (key, value) so consecutive equal keys form the candidate
// groups. When the budget is <= 0, or the caller's upfront record
// estimate fits it, the whole table stays in one in-memory partition;
// otherwise records are hash-partitioned across append-only files so no
// more than one partition (~budget/2 bytes) is resident at a time.
//
// Add is safe for concurrent use; ForEachPartition is not, and must run
// after all Adds complete.
type LSH struct {
	dir string

	// In-memory mode.
	memMode bool
	memMu   sync.Mutex
	mem     []Pair

	// Disk mode.
	parts []*lshPart

	counters
}

// lshPart is one append-only partition file plus its write buffer.
type lshPart struct {
	mu    sync.Mutex
	buf   []Pair
	maxBf int
	f     *os.File
	path  string
	count int
}

// NewLSH sizes the table for expectedRecords records under budget bytes.
// Partition count is chosen so one fully-loaded partition stays around
// half the budget, leaving headroom for the caller's sort and grouping.
// A budget <= 0 means unbounded: the table stays in memory and dir is
// never touched.
func NewLSH(dir string, expectedRecords, budget int64) *LSH {
	l := &LSH{dir: dir}
	if budget <= 0 || expectedRecords*pairBytes <= budget {
		l.memMode = true
		return l
	}
	half := budget / 2
	if half < pairBytes {
		half = pairBytes
	}
	p := (expectedRecords*pairBytes + half - 1) / half
	if p < minPartitions {
		p = minPartitions
	}
	if p > maxPartitions {
		p = maxPartitions
	}
	// Per-partition write buffer: keep the buffers' combined footprint
	// around a quarter of the budget, floor 256 records (4 KiB).
	maxBf := int(budget / 4 / pairBytes / p)
	if maxBf < 256 {
		maxBf = 256
	}
	l.parts = make([]*lshPart, p)
	for i := range l.parts {
		l.parts[i] = &lshPart{maxBf: maxBf}
	}
	return l
}

// Spilled reports whether the table went to disk.
func (l *LSH) Spilled() bool { return !l.memMode }

// Add inserts (bucketKey, docIndex) records. In memory, one call takes
// the table's lock once, so callers pass all of a document's records
// together.
func (l *LSH) Add(recs ...Pair) error {
	if l.memMode {
		l.memMu.Lock()
		l.mem = append(l.mem, recs...)
		l.memMu.Unlock()
		return nil
	}
	for _, r := range recs {
		p := l.parts[mix(r.K)%uint64(len(l.parts))]
		p.mu.Lock()
		p.buf = append(p.buf, r)
		var err error
		if len(p.buf) >= p.maxBf {
			err = l.flushPart(p)
		}
		p.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// flushPart appends the buffer as one frame to the partition file.
// Caller holds p.mu.
func (l *LSH) flushPart(p *lshPart) error {
	if len(p.buf) == 0 {
		return nil
	}
	if p.f == nil {
		f, err := createRun(l.dir, "lsh-*.djs")
		if err != nil {
			return err
		}
		p.f, p.path = f, f.Name()
	}
	bp := encodePairFrame(p.buf)
	_, err := p.f.Write(*bp)
	n := int64(len(*bp))
	putFrameBuf(bp)
	if err != nil {
		return err
	}
	p.count += len(p.buf)
	p.buf = p.buf[:0]
	l.bytes.Add(n)
	return nil
}

// ForEachPartition loads each partition, sorts its records by
// (key, value), and hands the sorted slice to fn. The slice is reused
// across partitions; fn must not retain it.
func (l *LSH) ForEachPartition(fn func(pairs []Pair) error) error {
	if l.memMode {
		sortPairs(l.mem)
		if len(l.mem) == 0 {
			return nil
		}
		return fn(l.mem)
	}
	var pairs []Pair
	for _, p := range l.parts {
		p.mu.Lock()
		err := l.flushPart(p)
		p.mu.Unlock()
		if err != nil {
			return err
		}
		if p.count == 0 {
			continue
		}
		l.runs.Add(1) // one materialized partition == one spill run
		data, err := os.ReadFile(p.path)
		if err != nil {
			return err
		}
		pairs, err = decodePairFrames(data, pairs[:0])
		if err != nil {
			return fmt.Errorf("spill: partition %s: %w", p.path, err)
		}
		if len(pairs) != p.count {
			return fmt.Errorf("spill: partition %s holds %d records, expected %d",
				p.path, len(pairs), p.count)
		}
		sortPairs(pairs)
		if err := fn(pairs); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports partitions materialized and bytes written.
func (l *LSH) Stats() Stats { return l.snapshot() }

// Close removes every partition file.
func (l *LSH) Close() error {
	for _, p := range l.parts {
		if p.f != nil {
			p.f.Close()
			os.Remove(p.path)
			p.f = nil
		}
	}
	l.mem = nil
	return nil
}
