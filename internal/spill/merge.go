package spill

import (
	"container/heap"
	"fmt"
	"io"
	"os"
)

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
	c    *runReader
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

// mergeCursors runs the k-way heap merge over the run readers, emitting
// every record in ascending (key, value) order. DiskSet compaction uses
// it to fold its runs into one.
func mergeCursors(cursors []*runReader, emit func(k, v uint64) error) error {
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
