package spill

import (
	"math/rand"
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
	kb := encodeKeyFrame([]uint64{1, 2})
	if _, err := decodePairFrames(*kb, nil); err == nil {
		t.Fatal("decodePairFrames accepted a key-only frame")
	}
	putFrameBuf(kb)
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
	bp := encodeKeyFrame([]uint64{1})
	(*bp)[4] = 99
	if _, _, err := parseFrameHeader(*bp); err == nil {
		t.Fatal("bad version accepted")
	}
	putFrameBuf(bp)
}

// TestSortedRunsMerge checks the external merge emits every record in
// global (key, value) order, across both the in-memory fast path and a
// genuinely spilled multi-run shape.
func TestSortedRunsMerge(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
		n      int
	}{
		{"in-memory", 1 << 30, 5000},
		{"spilled", 1, 50000}, // budget floor => 1024-pair runs => ~48 runs
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := NewSortedRuns(t.TempDir(), tc.budget)
			defer r.Close()
			rng := rand.New(rand.NewSource(7))
			want := make([]Pair, tc.n)
			for i := range want {
				p := Pair{K: rng.Uint64() % 997, V: uint64(i)}
				want[i] = p
				if err := r.Add(p.K, p.V); err != nil {
					t.Fatal(err)
				}
			}
			sortPairs(want)
			var got []Pair
			if err := r.Merge(func(k, v uint64) error {
				got = append(got, Pair{K: k, V: v})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("merged %d records, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
				}
			}
			st := r.Stats()
			if tc.name == "spilled" && (st.Runs < 2 || st.Bytes == 0) {
				t.Fatalf("spilled case wrote %d runs / %d bytes, want >= 2 runs", st.Runs, st.Bytes)
			}
			if tc.name == "in-memory" && st.Runs != 0 {
				t.Fatalf("in-memory case wrote %d runs, want 0", st.Runs)
			}
		})
	}
}

// TestSortedRunsUnbounded: a budget <= 0 never flushes, so the runs
// never touch their directory and Merge is one in-memory sort.
func TestSortedRunsUnbounded(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		r := NewSortedRuns("/nonexistent/never-created", budget)
		const n = 50000
		for i := 0; i < n; i++ {
			if err := r.Add(uint64(i%30000), uint64(n-i)); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
		}
		var prev Pair
		got := 0
		if err := r.Merge(func(k, v uint64) error {
			p := Pair{K: k, V: v}
			if got > 0 && (p.K < prev.K || p.K == prev.K && p.V <= prev.V) {
				t.Fatalf("budget %d: record %d = %+v after %+v", budget, got, p, prev)
			}
			prev = p
			got++
			return nil
		}); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if st := r.Stats(); got != n || st.Runs != 0 || st.Bytes != 0 {
			t.Fatalf("budget %d: merged %d records, %d runs, %d bytes; want %d, 0, 0",
				budget, got, st.Runs, st.Bytes, n)
		}
		r.Close()
	}
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
	// Spot-check membership probes after compaction.
	for sig := uint64(0); sig < 12000; sig += 13 {
		got, err := s.Contains(sig)
		if err != nil {
			t.Fatal(err)
		}
		_, want := ref[sig]
		if got != want {
			t.Fatalf("Contains(%d) = %v, want %v", sig, got, want)
		}
	}
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
