package spill

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
)

const (
	// fenceInterval is how many keys each fence covers: probes read one
	// fenceInterval-sized block per candidate run.
	fenceInterval = 512
	// maxSetRuns triggers compaction: when this many runs accumulate they
	// are merged into one, keeping probe fan-out bounded.
	maxSetRuns = 8
	// deltaEntryBytes is the estimated in-memory cost of one key and its
	// holder in the delta map (bucket slot + overhead), used to size it
	// from the budget.
	deltaEntryBytes = 48
)

// DiskSet is a disk-backed first-holder index over uint64 keys with
// LSM-style levels: each key maps to the ordinal of the first item that
// claimed it. New keys land in a bounded in-memory delta map; when the
// delta reaches its budget it is sorted and flushed as an immutable
// key/holder run (a DJS1 pair frame) with an in-memory fence index
// (every fenceInterval-th key). Probes check the delta, then each run
// via fence lookup + one key-block read, plus one 8-byte holder read on
// a hit. Runs are disjoint by construction — a key is only admitted to
// the delta after missing every run — so compaction is a simple k-way
// merge.
//
// DiskSet is not safe for concurrent use. Exact dedup claims batches one
// at a time in input order (the streaming engine's ordered index one
// shard per turn, the batch op as one shard), so first-holder semantics
// hold without any locking here.
type DiskSet struct {
	dir      string
	delta    map[uint64]uint64 // key -> first holder's ordinal
	maxDelta int
	runs     []*setRun

	scratch  []Pair  // sorted flush scratch, reused
	blockBuf []byte  // probe block read buffer, reused
	holder   []int64 // AddBatch's claim scratch, reused

	counters
}

// setRun is one immutable sorted key/holder run plus its fence index.
type setRun struct {
	path     string
	f        *os.File
	count    int
	fences   []uint64 // keys at indexes 0, fenceInterval, 2*fenceInterval, ...
	min, max uint64
}

// NewDiskSet creates a first-holder index bounded by budget bytes in
// dir. The directory is created on first flush, not up front. A budget
// <= 0 means unbounded: the delta never flushes, the set stays a plain
// in-memory map and dir is never touched.
func NewDiskSet(dir string, budget int64) *DiskSet {
	maxDelta := math.MaxInt
	if budget > 0 {
		maxDelta = max(int(budget/deltaEntryBytes), 1024)
	}
	return &DiskSet{
		dir:      dir,
		delta:    make(map[uint64]uint64),
		maxDelta: maxDelta,
	}
}

// Claim tests-and-inserts each key in order. holder[i] is -1 when
// sigs[i] was new — it is then stored with ordinal base+i — and
// otherwise the ordinal of the key's first holder, including a holder
// earlier in the same batch. Every slot of holder is written: callers
// reuse the slice across batches, so a skipped slot would leak the
// previous batch's verdict.
func (s *DiskSet) Claim(base uint64, sigs []uint64, holder []int64) error {
	for i, sig := range sigs {
		if v, ok := s.delta[sig]; ok {
			holder[i] = int64(v)
			continue
		}
		v, hit, err := s.probeRuns(sig)
		if err != nil {
			return err
		}
		if hit {
			holder[i] = int64(v)
			continue
		}
		holder[i] = -1
		s.delta[sig] = base + uint64(i)
		if len(s.delta) >= s.maxDelta {
			if err := s.flushDelta(); err != nil {
				return err
			}
		}
	}
	return nil
}

// AddBatch is Claim for callers that need only the verdict: novel[i] is
// true exactly when sigs[i] was not present before (first occurrence
// wins, including duplicates within the batch). Keys are stored with
// their ordinals in this batch.
func (s *DiskSet) AddBatch(sigs []uint64, novel []bool) error {
	if cap(s.holder) < len(sigs) {
		s.holder = make([]int64, len(sigs))
	}
	holder := s.holder[:len(sigs)]
	err := s.Claim(0, sigs, holder)
	for i, h := range holder {
		novel[i] = h < 0
	}
	return err
}

// probeRuns checks every run, newest first, returning the key's holder.
func (s *DiskSet) probeRuns(sig uint64) (uint64, bool, error) {
	for i := len(s.runs) - 1; i >= 0; i-- {
		v, hit, err := s.probeRun(s.runs[i], sig)
		if err != nil || hit {
			return v, hit, err
		}
	}
	return 0, false, nil
}

// probeRun fence-locates sig's candidate block, binary-searches it and,
// on a hit, reads the key's holder from the values column.
func (s *DiskSet) probeRun(r *setRun, sig uint64) (uint64, bool, error) {
	if r.count == 0 || sig < r.min || sig > r.max {
		return 0, false, nil
	}
	// Greatest fence <= sig; fences[0] == r.min so idx >= 0 here.
	idx := sort.Search(len(r.fences), func(i int) bool { return r.fences[i] > sig }) - 1
	if idx < 0 {
		return 0, false, nil
	}
	start := idx * fenceInterval
	n := min(r.count-start, fenceInterval)
	if cap(s.blockBuf) < n*8 {
		s.blockBuf = make([]byte, n*8)
	}
	buf := s.blockBuf[:n*8]
	if _, err := r.f.ReadAt(buf, frameHeaderSize+int64(start)*8); err != nil {
		return 0, false, fmt.Errorf("spill: probing %s: %w", r.path, err)
	}
	// Binary-search the little-endian keys in place: about log2(n)
	// decodes instead of n.
	j := sort.Search(n, func(i int) bool { return binary.LittleEndian.Uint64(buf[i*8:]) >= sig })
	if j == n || binary.LittleEndian.Uint64(buf[j*8:]) != sig {
		return 0, false, nil
	}
	valOff := frameHeaderSize + int64(r.count)*8
	if _, err := r.f.ReadAt(buf[:8], valOff+int64(start+j)*8); err != nil {
		return 0, false, fmt.Errorf("spill: probing %s: %w", r.path, err)
	}
	return binary.LittleEndian.Uint64(buf), true, nil
}

// flushDelta sorts the delta by key and writes it as a new run.
func (s *DiskSet) flushDelta() error {
	if len(s.delta) == 0 {
		return nil
	}
	s.scratch = s.scratch[:0]
	for k, v := range s.delta {
		s.scratch = append(s.scratch, Pair{K: k, V: v})
	}
	slices.SortFunc(s.scratch, func(a, b Pair) int { return cmp.Compare(a.K, b.K) })
	if err := s.writeRun(s.scratch); err != nil {
		return err
	}
	clear(s.delta)
	if len(s.runs) >= maxSetRuns {
		return s.compact()
	}
	return nil
}

// writeRun persists pairs sorted by unique key as one run and opens it
// for probes.
func (s *DiskSet) writeRun(pairs []Pair) error {
	f, err := createRun(s.dir, "set-*.djs")
	if err != nil {
		return err
	}
	bp := encodePairFrame(pairs)
	_, err = f.Write(*bp)
	n := int64(len(*bp))
	putFrameBuf(bp)
	if err != nil {
		f.Close()
		os.Remove(f.Name())
		return err
	}
	r := &setRun{path: f.Name(), f: f, count: len(pairs), min: pairs[0].K, max: pairs[len(pairs)-1].K}
	for i := 0; i < len(pairs); i += fenceInterval {
		r.fences = append(r.fences, pairs[i].K)
	}
	s.runs = append(s.runs, r)
	s.account(n)
	return nil
}

// compact merges all runs into one. Runs hold disjoint key sets, so the
// merge is a plain k-way interleave of already-unique keys.
func (s *DiskSet) compact() error {
	var cursors []*runReader
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for _, r := range s.runs {
		rr, err := openRunReader(r.path)
		if err != nil {
			return err
		}
		cursors = append(cursors, rr)
	}
	var merged []Pair
	err := mergeCursors(cursors, func(k, v uint64) error {
		merged = append(merged, Pair{K: k, V: v})
		return nil
	})
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
