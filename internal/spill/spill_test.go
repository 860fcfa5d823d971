package spill

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestFrameRoundTrip pins the columnar codec: header, both column
// layouts, and multi-frame concatenation.
func TestFrameRoundTrip(t *testing.T) {
	pairs := []Pair{{K: 3, V: 1}, {K: 0, V: 9}, {K: ^uint64(0), V: 42}}
	bp := encodePairFrame(pairs)
	count, withVals, err := parseFrameHeader(*bp)
	if err != nil || count != 3 || !withVals {
		t.Fatalf("header = (%d, %v, %v), want (3, true, nil)", count, withVals, err)
	}
	got, err := decodePairFrames(*bp, nil)
	if err != nil {
		t.Fatal(err)
	}
	putFrameBuf(bp)
	if len(got) != len(pairs) {
		t.Fatalf("decoded %d pairs, want %d", len(got), len(pairs))
	}
	for i := range pairs {
		if got[i] != pairs[i] {
			t.Fatalf("pair %d = %+v, want %+v", i, got[i], pairs[i])
		}
	}

	// Two concatenated frames decode as one stream.
	b1 := encodePairFrame(pairs[:1])
	b2 := encodePairFrame(pairs[1:])
	joined := append(append([]byte{}, *b1...), *b2...)
	putFrameBuf(b1)
	putFrameBuf(b2)
	got, err = decodePairFrames(joined, nil)
	if err != nil || len(got) != 3 {
		t.Fatalf("concat decode = (%d pairs, %v), want (3, nil)", len(got), err)
	}

	// Key-only frames refuse to decode as pairs.
	kb := make([]byte, frameSize(2, false))
	putFrameHeader(kb, 2, false)
	if _, err := decodePairFrames(kb, nil); err == nil {
		t.Fatal("decodePairFrames accepted a key-only frame")
	}
}

func TestFrameHeaderRejectsGarbage(t *testing.T) {
	if _, _, err := parseFrameHeader([]byte("short")); err == nil {
		t.Fatal("short header accepted")
	}
	bad := make([]byte, frameHeaderSize)
	copy(bad, "NOPE")
	if _, _, err := parseFrameHeader(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	bp := encodePairFrame([]Pair{{K: 1}})
	(*bp)[4] = 99
	if _, _, err := parseFrameHeader(*bp); err == nil {
		t.Fatal("bad version accepted")
	}
	putFrameBuf(bp)
}

// TestDiskSetMatchesMap drives a DiskSet with a tiny budget (forcing
// flushes and compaction) against a plain map reference.
func TestDiskSetMatchesMap(t *testing.T) {
	s := NewDiskSet(t.TempDir(), 1) // floor: 1024-entry delta
	defer s.Close()
	ref := make(map[uint64]struct{})
	rng := rand.New(rand.NewSource(11))

	const rounds = 100
	const batch = 512
	sigs := make([]uint64, batch)
	// novel starts dirty and is deliberately never cleared between
	// rounds: callers may reuse their verdict slice the same way, so
	// AddBatch must write every slot — a skipped duplicate slot
	// would leak the previous batch's verdict.
	novel := make([]bool, batch)
	for i := range novel {
		novel[i] = true
	}
	for round := 0; round < rounds; round++ {
		for i := range sigs {
			// Small key space so cross-batch duplicates are common.
			sigs[i] = rng.Uint64() % 12000
		}
		if err := s.AddBatch(sigs, novel); err != nil {
			t.Fatal(err)
		}
		for i, sig := range sigs {
			_, seen := ref[sig]
			if novel[i] == seen {
				t.Fatalf("round %d sig %d: novel=%v but previously seen=%v", round, sig, novel[i], seen)
			}
			ref[sig] = struct{}{}
		}
	}
	if s.Len() != len(ref) {
		t.Fatalf("Len() = %d, want %d", s.Len(), len(ref))
	}
	if st := s.Stats(); st.Runs < maxSetRuns+1 {
		t.Fatalf("expected flushes + compaction, got %d runs written", st.Runs)
	}
}

// TestDiskSetFirstHolder pins Claim's first-holder ordinals wherever
// the key lives: in the delta, in a flushed run, and in the run that
// compaction folded more than maxSetRuns flushes into.
func TestDiskSetFirstHolder(t *testing.T) {
	claim := func(s *DiskSet, base uint64, sigs ...uint64) []int64 {
		t.Helper()
		holder := make([]int64, len(sigs))
		for i := range holder {
			holder[i] = 99 // dirty: every slot must be written
		}
		if err := s.Claim(base, sigs, holder); err != nil {
			t.Fatal(err)
		}
		return holder
	}

	// Delta: a repeat in the same batch and in a later one.
	s := NewDiskSet(t.TempDir(), 1)
	defer s.Close()
	if got := claim(s, 10, 5, 7, 5); !slices.Equal(got, []int64{-1, -1, 10}) {
		t.Fatalf("delta batch = %v, want [-1 -1 10]", got)
	}
	if got := claim(s, 13, 7, 8); !slices.Equal(got, []int64{11, -1}) {
		t.Fatalf("delta repeat = %v, want [11 -1]", got)
	}

	// Flushed run: the 1024-entry delta floor flushes on the 1024th key.
	base := uint64(100)
	keys := make([]uint64, 1024-3)
	for i := range keys {
		keys[i] = 1000 + uint64(i)*3
	}
	claim(s, base, keys...)
	if st := s.Stats(); st.Runs != 1 || len(s.delta) != 0 {
		t.Fatalf("after 1024 keys: %d runs, %d in delta; want 1, 0", st.Runs, len(s.delta))
	}
	if got := claim(s, 5000, keys[500], 7, 2); !slices.Equal(got, []int64{int64(base) + 500, 11, -1}) {
		t.Fatalf("run hit = %v, want [%d 11 -1]", got, base+500)
	}

	// Compaction: enough distinct keys for more than maxSetRuns flushes.
	base = 1 << 20
	wide := make([]uint64, (maxSetRuns+2)*1024)
	for i := range wide {
		wide[i] = 1<<40 + uint64(i)*7
	}
	claim(s, base, wide...)
	if st := s.Stats(); st.Runs <= maxSetRuns || len(s.runs) >= maxSetRuns {
		t.Fatalf("%d runs written, %d live; want > %d written and compaction", st.Runs, len(s.runs), maxSetRuns)
	}
	probe := []uint64{wide[0], wide[4097], wide[len(wide)-1], keys[0], 5, 1<<40 + 1}
	want := []int64{int64(base), int64(base) + 4097, int64(base) + int64(len(wide)) - 1, 100, 10, -1}
	if got := claim(s, 1<<30, probe...); !slices.Equal(got, want) {
		t.Fatalf("after compaction = %v, want %v", got, want)
	}
	if s.Len() != 4+len(keys)+len(wide)+1 {
		t.Fatalf("Len() = %d, want %d", s.Len(), 4+len(keys)+len(wide)+1)
	}

	// A budget <= 0 never creates its directory.
	for _, budget := range []int64{0, -1} {
		dir := filepath.Join(t.TempDir(), "never")
		u := NewDiskSet(dir, budget)
		claim(u, 0, wide...)
		if got := claim(u, 0, wide[9000]); got[0] != 9000 {
			t.Fatalf("budget %d: holder %d, want 9000", budget, got[0])
		}
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Fatalf("budget %d: dir stat err = %v, want not-exist", budget, err)
		}
		u.Close()
	}
}

// FuzzDiskSetClaim checks Claim against a map first-holder oracle. Each
// input byte is one batch: the byte and the batch's position pick a span
// of consecutive keys in a 16384-key space, so a few dozen bytes cross
// the 1024-entry delta floor many times (flushes, then compaction) while
// keys repeat across and within batches.
func FuzzDiskSetClaim(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{255, 254, 7, 7, 7, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			data = data[:256]
		}
		for _, budget := range []int64{0, 1 << 10} {
			s := NewDiskSet(t.TempDir(), budget)
			oracle := map[uint64]int64{}
			var base uint64
			for bi, b := range data {
				n := 128 * (int(b&3) + 1)
				start := uint64(b)*64 + uint64(bi)*1031
				sigs := make([]uint64, n)
				for i := range sigs {
					// The last quarter of every span repeats its
					// own first keys.
					sigs[i] = (start + uint64(i%(n-n/4))) % 16384
				}
				holder := make([]int64, n)
				if err := s.Claim(base, sigs, holder); err != nil {
					t.Fatal(err)
				}
				for i, sig := range sigs {
					want, seen := oracle[sig]
					if !seen {
						want = -1
						oracle[sig] = int64(base) + int64(i)
					}
					if holder[i] != want {
						t.Fatalf("budget %d batch %d key %d: holder %d, want %d", budget, bi, sig, holder[i], want)
					}
				}
				base += uint64(n)
			}
			if s.Len() != len(oracle) {
				t.Fatalf("budget %d: Len() = %d, want %d", budget, s.Len(), len(oracle))
			}
			if budget <= 0 && s.Stats().Runs != 0 {
				t.Fatalf("unbounded set wrote %d runs", s.Stats().Runs)
			}
			s.Close()
		}
	})
}

// TestDiskSetUnbounded: a budget <= 0 never flushes, so the set never
// touches its directory and answers like a plain map.
func TestDiskSetUnbounded(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		s := NewDiskSet("/nonexistent/never-created", budget)
		sigs := make([]uint64, 50000)
		for i := range sigs {
			sigs[i] = uint64(i % 30000)
		}
		novel := make([]bool, len(sigs))
		if err := s.AddBatch(sigs, novel); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		for i := range sigs {
			if novel[i] != (i < 30000) {
				t.Fatalf("budget %d: novel[%d] = %v", budget, i, novel[i])
			}
		}
		if st := s.Stats(); st.Runs != 0 || s.Len() != 30000 {
			t.Fatalf("budget %d: %d runs, %d keys; want 0 runs, 30000 keys", budget, st.Runs, s.Len())
		}
		s.Close()
	}
}

// TestLSHPartitionsCoverAllRecords checks disk-partitioned tables hand
// back every record exactly once, sorted within each partition, and that
// the in-memory mode engages when the estimate fits.
func TestLSHPartitionsCoverAllRecords(t *testing.T) {
	const n = 20000
	l := NewLSH(t.TempDir(), n, 4096) // way under n*16 => disk mode
	defer l.Close()
	if !l.Spilled() {
		t.Fatal("expected disk mode for estimate >> budget")
	}
	for i := 0; i < n; i++ {
		if err := l.Add(Pair{K: uint64(i % 513), V: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	seen := make(map[uint64]uint64) // val -> key
	err := l.ForEachPartition(func(pairs []Pair) error {
		if !sort.SliceIsSorted(pairs, func(i, j int) bool {
			if pairs[i].K != pairs[j].K {
				return pairs[i].K < pairs[j].K
			}
			return pairs[i].V < pairs[j].V
		}) {
			t.Fatal("partition not sorted")
		}
		for _, p := range pairs {
			if _, dup := seen[p.V]; dup {
				t.Fatalf("value %d visited twice", p.V)
			}
			seen[p.V] = p.K
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("visited %d records, want %d", len(seen), n)
	}
	for v, k := range seen {
		if k != v%513 {
			t.Fatalf("value %d carried key %d, want %d", v, k, v%513)
		}
	}
	if st := l.Stats(); st.Runs == 0 || st.Bytes == 0 {
		t.Fatalf("disk mode reported no spill activity: %+v", st)
	}

	m := NewLSH(t.TempDir(), 10, 1<<20)
	if m.Spilled() {
		t.Fatal("tiny estimate should stay in memory")
	}
	m.Add(Pair{K: 5, V: 1}, Pair{K: 5, V: 0})
	var got []Pair
	m.ForEachPartition(func(pairs []Pair) error {
		got = append(got, pairs...)
		return nil
	})
	if len(got) != 2 || got[0] != (Pair{K: 5, V: 0}) || got[1] != (Pair{K: 5, V: 1}) {
		t.Fatalf("in-memory partition = %+v", got)
	}
	if st := m.Stats(); st.Runs != 0 || st.Bytes != 0 {
		t.Fatalf("in-memory mode reported spill activity: %+v", st)
	}

	// A budget <= 0 is unbounded whatever the estimate.
	for _, budget := range []int64{0, -1} {
		if NewLSH("/nonexistent/never-created", 1<<40, budget).Spilled() {
			t.Fatalf("budget %d: table went to disk", budget)
		}
	}
}
