// Package dataset provides the in-memory dataset that the pipeline
// executor operates on. It is the Go stand-in for the Huggingface-datasets
// substrate of the paper: an ordered collection of samples with parallel
// Map/Filter primitives, JSONL persistence, and content fingerprints for
// the cache and checkpoint machinery.
package dataset

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"repro/internal/sample"
)

// Dataset is an ordered collection of samples. Operations preserve sample
// order; Filter returns both kept and dropped samples so the tracer can
// record lineage.
type Dataset struct {
	Samples []*sample.Sample
}

// New wraps the given samples.
func New(samples []*sample.Sample) *Dataset { return &Dataset{Samples: samples} }

// FromTexts builds a dataset with one sample per text.
func FromTexts(texts []string) *Dataset {
	ss := make([]*sample.Sample, len(texts))
	for i, t := range texts {
		ss[i] = sample.New(t)
	}
	return New(ss)
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// TotalBytes returns the total primary-text size in bytes.
func (d *Dataset) TotalBytes() int64 {
	var n int64
	for _, s := range d.Samples {
		n += int64(len(s.Text))
	}
	return n
}

// Clone deep-copies the dataset.
func (d *Dataset) Clone() *Dataset {
	ss := make([]*sample.Sample, len(d.Samples))
	for i, s := range d.Samples {
		ss[i] = s.Clone()
	}
	return New(ss)
}

// Concat returns a new dataset holding all samples of the inputs, in
// order. Samples are shared, not copied.
func Concat(parts ...*Dataset) *Dataset {
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	ss := make([]*sample.Sample, 0, total)
	for _, p := range parts {
		ss = append(ss, p.Samples...)
	}
	return New(ss)
}

// Workers normalizes a requested worker count: np <= 0 means GOMAXPROCS.
func Workers(np int) int {
	if np <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return np
}

// Map applies fn to every sample in place using np parallel workers.
// The first error aborts outstanding work and is returned.
func (d *Dataset) Map(np int, fn func(*sample.Sample) error) error {
	np = Workers(np)
	if len(d.Samples) == 0 {
		return nil
	}
	if np == 1 || len(d.Samples) < 2 {
		for _, s := range d.Samples {
			if err := fn(s); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		firstEr error
		next    int64
	)
	var mu sync.Mutex
	take := func(chunk int) (lo, hi int, ok bool) {
		mu.Lock()
		defer mu.Unlock()
		if int(next) >= len(d.Samples) {
			return 0, 0, false
		}
		lo = int(next)
		hi = lo + chunk
		if hi > len(d.Samples) {
			hi = len(d.Samples)
		}
		next = int64(hi)
		return lo, hi, true
	}
	chunk := len(d.Samples)/(np*4) + 1
	for w := 0; w < np; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo, hi, ok := take(chunk)
				if !ok {
					return
				}
				for _, s := range d.Samples[lo:hi] {
					if err := fn(s); err != nil {
						errOnce.Do(func() { firstEr = err })
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return firstEr
}

// Filter evaluates keep on every sample with np workers and splits the
// dataset into kept (a new Dataset, original order) and dropped samples.
func (d *Dataset) Filter(np int, keep func(*sample.Sample) bool) (*Dataset, []*sample.Sample) {
	verdict := make([]bool, len(d.Samples))
	parallelRange(np, len(d.Samples), func(idx int) {
		verdict[idx] = keep(d.Samples[idx])
	})
	kept := make([]*sample.Sample, 0, len(d.Samples))
	var dropped []*sample.Sample
	for idx, ok := range verdict {
		if ok {
			kept = append(kept, d.Samples[idx])
		} else {
			dropped = append(dropped, d.Samples[idx])
		}
	}
	return New(kept), dropped
}

// MapIndexed applies fn(i, sample) in parallel; useful when the position
// matters (e.g. hashing with tie-breaking by earliest sample).
func (d *Dataset) MapIndexed(np int, fn func(int, *sample.Sample) error) error {
	var (
		errOnce sync.Once
		firstEr error
	)
	parallelRange(np, len(d.Samples), func(idx int) {
		if err := fn(idx, d.Samples[idx]); err != nil {
			errOnce.Do(func() { firstEr = err })
		}
	})
	return firstEr
}

func parallelRange(np, n int, fn func(i int)) {
	np = Workers(np)
	if n == 0 {
		return
	}
	if np == 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (n + np - 1) / np
	for w := 0; w < np; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Fingerprint returns a stable content hash of the dataset (text, parts,
// meta and stats of every sample, in order). It keys the cache and
// checkpoint stores.
func (d *Dataset) Fingerprint() string {
	h := fnv.New64a()
	var scratch [8]byte
	writeLen := func(n int) {
		for i := 0; i < 8; i++ {
			scratch[i] = byte(n >> (8 * i))
		}
		h.Write(scratch[:])
	}
	for _, s := range d.Samples {
		writeLen(len(s.Text))
		io.WriteString(h, s.Text)
		hashFields(h, s.Meta)
		hashStats(h, &s.Stats)
		if len(s.Parts) > 0 {
			keys := make([]string, 0, len(s.Parts))
			for k := range s.Parts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				io.WriteString(h, k)
				io.WriteString(h, s.Parts[k])
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// hashStats folds the typed stats table into the fingerprint in sorted
// key order, formatting values exactly as hashFields does.
func hashStats(h io.Writer, t *sample.Stats) {
	t.Range(func(name string, v any) bool {
		io.WriteString(h, name)
		switch x := v.(type) {
		case sample.Fields:
			hashFields(h, x)
		case map[string]any:
			hashFields(h, sample.Fields(x))
		default:
			fmt.Fprintf(h, "%v", x)
		}
		return true
	})
}

func hashFields(h io.Writer, f sample.Fields) {
	for _, k := range f.Keys() {
		io.WriteString(h, k)
		v, _ := f.Get(k)
		switch x := v.(type) {
		case sample.Fields:
			hashFields(h, x)
		case map[string]any:
			hashFields(h, sample.Fields(x))
		default:
			fmt.Fprintf(h, "%v", x)
		}
	}
}

// encodeBufPool recycles the per-call encode buffers of WriteJSONL.
var encodeBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// WriteJSONL writes one JSON object per sample through the hand-rolled
// encoder (byte-identical to encoding/json), reusing one scratch buffer
// across samples.
func (d *Dataset) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bufP := encodeBufPool.Get().(*[]byte)
	defer encodeBufPool.Put(bufP)
	for _, s := range d.Samples {
		line, err := s.AppendJSON((*bufP)[:0])
		if err != nil {
			return fmt.Errorf("dataset: encode sample: %w", err)
		}
		line = append(line, '\n')
		*bufP = line
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL reads a dataset written by WriteJSONL (or any JSONL file whose
// objects carry a "text" field).
func ReadJSONL(r io.Reader) (*Dataset, error) {
	var samples []*sample.Sample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<26)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		// Samples are allocated individually (never from shared blocks):
		// a surviving sample must not pin dropped block-mates — and
		// their texts — past a selective filter.
		s := &sample.Sample{}
		if err := s.UnmarshalJSON(line); err != nil {
			return nil, fmt.Errorf("dataset: line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scan: %w", err)
	}
	return New(samples), nil
}

// SaveJSONL writes the dataset to path, creating parent directories.
func (d *Dataset) SaveJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := d.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
