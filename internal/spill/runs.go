package spill

import (
	"cmp"
	"container/heap"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// SortedRuns is the classic external-sort building block: Add buffers
// (key, value) records until the in-memory buffer reaches the byte
// budget, then sorts it by (key, value) and flushes it to a run file.
// Merge streams all runs plus the in-memory tail through a k-way heap
// merge, emitting records in globally sorted order. When nothing ever
// spilled, Merge degenerates to a single in-memory sort.
//
// SortedRuns is not safe for concurrent use.
type SortedRuns struct {
	dir    string
	buf    []Pair
	maxBuf int
	files  []string

	counters
}

// pairBytes is the in-memory footprint of one buffered Pair.
const pairBytes = 16

// NewSortedRuns creates a run writer bounded by budget bytes, with a
// floor of 1024 buffered pairs per run so runs are never degenerate. A
// budget <= 0 means unbounded: the buffer never flushes, Merge is one
// in-memory sort and dir is never touched.
func NewSortedRuns(dir string, budget int64) *SortedRuns {
	maxBuf := math.MaxInt
	if budget > 0 {
		maxBuf = max(int(budget/pairBytes), 1024)
	}
	return &SortedRuns{dir: dir, maxBuf: maxBuf}
}

// Add buffers one record, flushing a sorted run when the buffer is full.
func (r *SortedRuns) Add(k, v uint64) error {
	r.buf = append(r.buf, Pair{K: k, V: v})
	if len(r.buf) >= r.maxBuf {
		return r.flush()
	}
	return nil
}

// sortPairs orders records by (key, value).
func sortPairs(pairs []Pair) {
	slices.SortFunc(pairs, func(a, b Pair) int {
		if c := cmp.Compare(a.K, b.K); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
}

// flush sorts the buffer and writes it as one frame to a new run file.
func (r *SortedRuns) flush() error {
	if len(r.buf) == 0 {
		return nil
	}
	sortPairs(r.buf)
	f, err := createRun(r.dir, "run-*.djs")
	if err != nil {
		return err
	}
	bp := encodePairFrame(r.buf)
	_, err = f.Write(*bp)
	n := int64(len(*bp))
	putFrameBuf(bp)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	r.files = append(r.files, f.Name())
	r.account(n)
	r.buf = r.buf[:0]
	return nil
}

// Merge emits every added record in ascending (key, value) order. It may
// be called once; the run files are consumed but only removed by Close.
func (r *SortedRuns) Merge(emit func(k, v uint64) error) error {
	sortPairs(r.buf)
	if len(r.files) == 0 {
		for _, p := range r.buf {
			if err := emit(p.K, p.V); err != nil {
				return err
			}
		}
		return nil
	}
	var cursors []mergeCursor
	defer func() {
		for _, c := range cursors {
			c.close()
		}
	}()
	for _, path := range r.files {
		rr, err := openRunReader(path)
		if err != nil {
			return err
		}
		cursors = append(cursors, rr)
	}
	if len(r.buf) > 0 {
		cursors = append(cursors, &memCursor{pairs: r.buf})
	}
	return mergeCursors(cursors, emit)
}

// Stats reports runs and bytes written so far.
func (r *SortedRuns) Stats() Stats { return r.snapshot() }

// Close removes all run files.
func (r *SortedRuns) Close() error {
	removeAll(r.files)
	r.files = nil
	r.buf = nil
	return nil
}

// mergeCursor is one sorted input to the k-way merge.
type mergeCursor interface {
	// next advances and returns the next record; ok=false at EOF.
	next() (k, v uint64, ok bool, err error)
	close()
}

// memCursor walks an already-sorted in-memory slice.
type memCursor struct {
	pairs []Pair
	i     int
}

func (c *memCursor) next() (uint64, uint64, bool, error) {
	if c.i >= len(c.pairs) {
		return 0, 0, false, nil
	}
	p := c.pairs[c.i]
	c.i++
	return p.K, p.V, true, nil
}

func (c *memCursor) close() {}

// runReaderBatch is how many records a run reader loads per column read:
// two 32 KiB sequential reads, independent of the run size.
const runReaderBatch = 4096

// runReader streams one run file's columns in fixed-size batches so the
// merge holds O(batch x runs) records in memory, not the whole runs.
type runReader struct {
	f              *os.File
	count          int
	keyOff, valOff int64
	pos            int // absolute record index of the next batch
	keys, vals     []uint64
	i              int // cursor within the loaded batch
	raw            []byte
}

func openRunReader(path string) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		f.Close()
		return nil, fmt.Errorf("spill: reading run header %s: %w", path, err)
	}
	count, withVals, err := parseFrameHeader(hdr[:])
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("spill: %s: %w", path, err)
	}
	if !withVals {
		f.Close()
		return nil, fmt.Errorf("spill: run %s missing value column", path)
	}
	return &runReader{
		f:      f,
		count:  count,
		keyOff: frameHeaderSize,
		valOff: frameHeaderSize + int64(count)*8,
	}, nil
}

func (r *runReader) loadBatch() error {
	n := r.count - r.pos
	if n <= 0 {
		return io.EOF
	}
	if n > runReaderBatch {
		n = runReaderBatch
	}
	if cap(r.raw) < n*8 {
		r.raw = make([]byte, n*8)
	}
	raw := r.raw[:n*8]
	if _, err := r.f.ReadAt(raw, r.keyOff+int64(r.pos)*8); err != nil {
		return err
	}
	r.keys = decodeU64s(raw, r.keys[:0])
	if _, err := r.f.ReadAt(raw, r.valOff+int64(r.pos)*8); err != nil {
		return err
	}
	r.vals = decodeU64s(raw, r.vals[:0])
	r.pos += n
	r.i = 0
	return nil
}

func (r *runReader) next() (uint64, uint64, bool, error) {
	if r.i >= len(r.keys) {
		switch err := r.loadBatch(); err {
		case nil:
		case io.EOF:
			return 0, 0, false, nil
		default:
			return 0, 0, false, err
		}
	}
	k, v := r.keys[r.i], r.vals[r.i]
	r.i++
	return k, v, true, nil
}

func (r *runReader) close() { r.f.Close() }

// mergeHeap orders cursor heads by (key, value).
type mergeHead struct {
	k, v uint64
	c    mergeCursor
}

type mergeHeap []mergeHead

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	if h[i].k != h[j].k {
		return h[i].k < h[j].k
	}
	return h[i].v < h[j].v
}
func (h mergeHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)      { *h = append(*h, x.(mergeHead)) }
func (h *mergeHeap) Pop() any        { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h mergeHeap) peek() *mergeHead { return &h[0] }

// mergeCursors runs the k-way heap merge over the cursors, emitting every
// record in ascending (key, value) order.
func mergeCursors(cursors []mergeCursor, emit func(k, v uint64) error) error {
	h := make(mergeHeap, 0, len(cursors))
	for _, c := range cursors {
		k, v, ok, err := c.next()
		if err != nil {
			return err
		}
		if ok {
			h = append(h, mergeHead{k: k, v: v, c: c})
		}
	}
	heap.Init(&h)
	for h.Len() > 0 {
		head := h.peek()
		if err := emit(head.k, head.v); err != nil {
			return err
		}
		k, v, ok, err := head.c.next()
		if err != nil {
			return err
		}
		if ok {
			head.k, head.v = k, v
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return nil
}
