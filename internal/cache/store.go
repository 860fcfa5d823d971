// Package cache implements the space-optimization layer of Sec. 6: the
// per-operator dataset store keyed by op-chain fingerprints. The same
// Store holds the op cache and, kept to the latest state of each chain
// with the bounded-peak-space cleanup discipline of Appendix A.2, the
// crash-recovery checkpoint (see core.Walk). Entries are plain JSONL,
// the same bytes an export holds.
package cache

import (
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/dataset"
	"repro/internal/ops"
)

// Store is the per-operator dataset cache: after each OP the executor can
// persist the current dataset keyed by (input fingerprint, op name, op
// params), so re-running a recipe with a modified tail reuses every
// unchanged prefix — the cache mechanism of Sec. 4.1.1.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a cache directory of plain JSONL
// entries. compression selected the removed cache codecs; any non-empty
// value is an error. It remains only so the benchmark harness, which
// still passes "", compiles; a later benchmark-scoped change deletes it.
func NewStore(dir, compression string) (*Store, error) {
	if compression != "" {
		return nil, fmt.Errorf("cache: compression %q is not supported", compression)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &Store{dir: dir}, nil
}

// keySchema is mixed into every Key. Bump it when an op's output changes
// on purpose (same name and params, different samples out), so cache
// entries and checkpoints written by an older build miss instead of
// serving the old output. 2: MinHash signatures became one-permutation
// with threshold-derived banding.
const keySchema = 2

// Key derives the cache key for applying an operator (with params) to a
// dataset state identified by inputFingerprint.
func Key(inputFingerprint, opName string, params ops.Params) string {
	h := fnv.New64a()
	fmt.Fprint(h, "schema=", keySchema, "\x00", inputFingerprint, "\x00", opName, "\x00")
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v\x00", k, params[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// entrySuffix names a cache entry file: <key>.jsonl.
const entrySuffix = ".jsonl"

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// writeJSONL writes d as JSONL into path+".tmp" and renames it over
// path: the rename is the commit point, so a reader never sees a partial
// file. A failed write removes the temp file.
func writeJSONL(path string, d *dataset.Dataset) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = d.WriteJSONL(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}

// readJSONL parses the JSONL file at path.
func readJSONL(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataset.ReadJSONL(f)
}

// Put stores the dataset under key.
func (s *Store) Put(key string, d *dataset.Dataset) error {
	return writeJSONL(s.path(key), d)
}

// Get loads the dataset stored under key; ok is false on a cache miss.
func (s *Store) Get(key string) (d *dataset.Dataset, ok bool, err error) {
	ds, err := readJSONL(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cache: read %s: %w", key, err)
	}
	return ds, true, nil
}

// Delete removes the entry for key if present.
func (s *Store) Delete(key string) error {
	err := os.Remove(s.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// Clear removes every entry (and any temp file a failed write left):
// a checkpoint is emptied once its run has succeeded.
func (s *Store) Clear() error {
	if err := os.RemoveAll(s.dir); err != nil {
		return err
	}
	return os.MkdirAll(s.dir, 0o755)
}

// Keys lists the stored cache keys.
func (s *Store) Keys() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		if key, ok := strings.CutSuffix(e.Name(), entrySuffix); ok && key != "" {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// SizeOnDisk returns the total bytes used by cache entries, walking
// subdirectories too so intermediate spill runs living under the cache
// directory (see SpillDir) count against cache disk usage.
func (s *Store) SizeOnDisk() (int64, error) {
	var total int64
	err := filepath.WalkDir(s.dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil // spill files vanish concurrently; skip, don't fail
		}
		if info, err := d.Info(); err == nil {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// SpillDir returns where dedup ops write intermediate spill runs: under
// the cache directory when the cache is enabled (so SizeOnDisk accounts
// them), else a sibling spill directory under the work dir. Nothing is
// created; spill structures mkdir on first use.
func SpillDir(workDir string, useCache bool) string {
	if useCache {
		return filepath.Join(workDir, "cache", "spill")
	}
	return filepath.Join(workDir, "spill")
}
