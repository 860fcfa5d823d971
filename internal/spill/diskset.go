package spill

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

const (
	// fenceInterval is how many keys each fence covers: probes read one
	// fenceInterval-sized block per candidate run.
	fenceInterval = 512
	// maxSetRuns triggers compaction: when this many runs accumulate they
	// are merged into one, keeping probe fan-out bounded.
	maxSetRuns = 8
	// deltaEntryBytes is the estimated in-memory cost of one key in the
	// delta map (bucket slot + overhead), used to size it from the budget.
	deltaEntryBytes = 48
)

// DiskSet is a disk-backed uint64 membership set with LSM-style levels:
// new keys land in a bounded in-memory delta map; when the delta reaches
// its budget it is sorted and flushed as an immutable key-only run with
// an in-memory fence index (every fenceInterval-th key). Probes check the
// delta, then each run via fence lookup + one block read. Runs are
// disjoint by construction — a key is only admitted to the delta after
// missing every run — so compaction is a simple k-way merge.
//
// DiskSet is not safe for concurrent use. The streaming engine's ordered
// signature index applies batches one at a time in stream order, so
// first-occurrence semantics hold without any locking here.
type DiskSet struct {
	dir      string
	budget   int64
	delta    map[uint64]struct{}
	maxDelta int
	runs     []*setRun

	scratch  []uint64 // sorted flush scratch, reused
	blockBuf []byte   // probe block read buffer, reused
	blockKey []uint64 // decoded probe block, reused

	counters
}

// setRun is one immutable sorted key-only run plus its fence index.
type setRun struct {
	path     string
	f        *os.File
	count    int
	fences   []uint64 // keys at indexes 0, fenceInterval, 2*fenceInterval, ...
	min, max uint64
}

// NewDiskSet creates a signature set bounded by budget bytes in dir. The
// directory is created on first flush, not up front. A budget <= 0 means
// unbounded: the delta never flushes, the set stays a plain in-memory
// map and dir is never touched.
func NewDiskSet(dir string, budget int64) *DiskSet {
	maxDelta := math.MaxInt
	if budget > 0 {
		maxDelta = max(int(budget/deltaEntryBytes), 1024)
	}
	return &DiskSet{
		dir:      dir,
		budget:   budget,
		delta:    make(map[uint64]struct{}),
		maxDelta: maxDelta,
	}
}

// AddBatch tests-and-inserts each signature in order, setting novel[i]
// true exactly when sigs[i] was not present before this call (first
// occurrence wins, including duplicates within the batch). Every slot
// of novel is written: callers reuse the slice across batches, so a
// skipped slot would leak the previous batch's verdict and let a
// duplicate through.
func (s *DiskSet) AddBatch(sigs []uint64, novel []bool) error {
	for i, sig := range sigs {
		if _, ok := s.delta[sig]; ok {
			novel[i] = false
			continue
		}
		hit, err := s.probeRuns(sig)
		if err != nil {
			return err
		}
		if hit {
			novel[i] = false
			continue
		}
		novel[i] = true
		s.delta[sig] = struct{}{}
		if len(s.delta) >= s.maxDelta {
			if err := s.flushDelta(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Contains reports membership without inserting.
func (s *DiskSet) Contains(sig uint64) (bool, error) {
	if _, ok := s.delta[sig]; ok {
		return true, nil
	}
	return s.probeRuns(sig)
}

// probeRuns checks every run, newest first.
func (s *DiskSet) probeRuns(sig uint64) (bool, error) {
	for i := len(s.runs) - 1; i >= 0; i-- {
		hit, err := s.probeRun(s.runs[i], sig)
		if err != nil {
			return false, err
		}
		if hit {
			return true, nil
		}
	}
	return false, nil
}

// probeRun fence-locates sig's candidate block and binary-searches it.
func (s *DiskSet) probeRun(r *setRun, sig uint64) (bool, error) {
	if r.count == 0 || sig < r.min || sig > r.max {
		return false, nil
	}
	// Greatest fence <= sig; fences[0] == r.min so idx >= 0 here.
	idx := sort.Search(len(r.fences), func(i int) bool { return r.fences[i] > sig }) - 1
	if idx < 0 {
		return false, nil
	}
	start := idx * fenceInterval
	n := r.count - start
	if n > fenceInterval {
		n = fenceInterval
	}
	if cap(s.blockBuf) < n*8 {
		s.blockBuf = make([]byte, n*8)
	}
	buf := s.blockBuf[:n*8]
	if _, err := r.f.ReadAt(buf, frameHeaderSize+int64(start)*8); err != nil {
		return false, fmt.Errorf("spill: probing %s: %w", r.path, err)
	}
	s.blockKey = decodeU64s(buf, s.blockKey[:0])
	keys := s.blockKey
	j := sort.Search(len(keys), func(i int) bool { return keys[i] >= sig })
	return j < len(keys) && keys[j] == sig, nil
}

// flushDelta sorts the delta and writes it as a new run.
func (s *DiskSet) flushDelta() error {
	if len(s.delta) == 0 {
		return nil
	}
	s.scratch = s.scratch[:0]
	for k := range s.delta {
		s.scratch = append(s.scratch, k)
	}
	sort.Slice(s.scratch, func(i, j int) bool { return s.scratch[i] < s.scratch[j] })
	if err := s.writeRun(s.scratch); err != nil {
		return err
	}
	clear(s.delta)
	if len(s.runs) >= maxSetRuns {
		return s.compact()
	}
	return nil
}

// writeRun persists sorted unique keys as one run and opens it for probes.
func (s *DiskSet) writeRun(keys []uint64) error {
	f, err := createRun(s.dir, "set-*.djs")
	if err != nil {
		return err
	}
	bp := encodeKeyFrame(keys)
	_, err = f.Write(*bp)
	n := int64(len(*bp))
	putFrameBuf(bp)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	r := &setRun{path: f.Name(), f: f, count: len(keys), min: keys[0], max: keys[len(keys)-1]}
	for i := 0; i < len(keys); i += fenceInterval {
		r.fences = append(r.fences, keys[i])
	}
	s.runs = append(s.runs, r)
	s.account(n)
	return nil
}

// compact merges all runs into one. Runs hold disjoint key sets, so the
// merge is a plain k-way interleave of already-unique keys.
func (s *DiskSet) compact() error {
	var cursors []mergeCursor
	for _, r := range s.runs {
		rr, err := openSetRunReader(r)
		if err != nil {
			return err
		}
		cursors = append(cursors, rr)
	}
	var merged []uint64
	err := mergeCursors(cursors, func(k, _ uint64) error {
		merged = append(merged, k)
		return nil
	})
	for _, c := range cursors {
		c.close()
	}
	if err != nil {
		return err
	}
	old := s.runs
	s.runs = nil
	if err := s.writeRun(merged); err != nil {
		s.runs = old
		return err
	}
	for _, r := range old {
		r.f.Close()
		os.Remove(r.path)
	}
	return nil
}

// openSetRunReader adapts a key-only run to the merge cursor interface.
func openSetRunReader(r *setRun) (mergeCursor, error) {
	f, err := os.Open(r.path)
	if err != nil {
		return nil, err
	}
	return &setRunReader{f: f, count: r.count}, nil
}

type setRunReader struct {
	f     *os.File
	count int
	pos   int
	keys  []uint64
	i     int
	raw   []byte
}

func (r *setRunReader) next() (uint64, uint64, bool, error) {
	if r.i >= len(r.keys) {
		n := r.count - r.pos
		if n <= 0 {
			return 0, 0, false, nil
		}
		if n > runReaderBatch {
			n = runReaderBatch
		}
		if cap(r.raw) < n*8 {
			r.raw = make([]byte, n*8)
		}
		raw := r.raw[:n*8]
		if _, err := r.f.ReadAt(raw, frameHeaderSize+int64(r.pos)*8); err != nil && err != io.EOF {
			return 0, 0, false, err
		}
		r.keys = decodeU64s(raw, r.keys[:0])
		r.pos += n
		r.i = 0
	}
	k := r.keys[r.i]
	r.i++
	return k, 0, true, nil
}

func (r *setRunReader) close() { r.f.Close() }

// Stats reports runs and bytes written (compaction output included).
func (s *DiskSet) Stats() Stats { return s.snapshot() }

// Len returns how many distinct keys the set holds.
func (s *DiskSet) Len() int {
	n := len(s.delta)
	for _, r := range s.runs {
		n += r.count
	}
	return n
}

// Close releases file handles and removes all run files.
func (s *DiskSet) Close() error {
	for _, r := range s.runs {
		r.f.Close()
		os.Remove(r.path)
	}
	s.runs = nil
	s.delta = nil
	return nil
}
