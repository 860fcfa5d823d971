package stream

import (
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/spill"
)

// raceDetectorEnabled is set by race_on_test.go when the race detector
// is active (alloc-count pins are skipped there).
var raceDetectorEnabled bool

// TestTurnstileStress hammers the ordered index with concurrent shards
// that arrive out of order (seeded jitter before each claim) over a
// duplicate-heavy signature stream, and checks every holder ordinal and
// every shard's base ordinal against a serial first-holder reference. Run under -race this doubles as the
// data-race proof for the park/apply/wake protocol.
func TestTurnstileStress(t *testing.T) {
	const (
		shards     = 64
		batch      = 257
		sigSpace   = 700 // far fewer distinct sigs than shards*batch: heavy dups
		goroutines = 16
	)
	rng := rand.New(rand.NewSource(42))
	sigs := make([][]uint64, shards)
	jitter := make([]time.Duration, shards)
	for s := range sigs {
		sigs[s] = make([]uint64, batch)
		for i := range sigs[s] {
			sigs[s][i] = uint64(rng.Intn(sigSpace)) * 0x9e3779b9 // clustered keys
		}
		jitter[s] = time.Duration(rng.Intn(500)) * time.Microsecond
	}

	// Serial reference: first holder in (shard, position) order, as an
	// ordinal over the concatenated shards.
	want := make([][]int64, shards)
	first := map[uint64]int64{}
	for s := range sigs {
		want[s] = make([]int64, batch)
		for i, sig := range sigs[s] {
			h, dup := first[sig]
			if !dup {
				h = -1
				first[sig] = int64(s*batch + i)
			}
			want[s][i] = h
		}
	}

	x := newTurnstile(spill.NewDiskSet("", 0))
	got := make([][]int64, shards)
	bases := make([]uint64, shards)
	abort := make(chan struct{})
	// Shards are handed out in index order, as the engine's pool does:
	// that keeps the lowest in-flight shard held and the turnstile live.
	work := make(chan int)
	// A failed claim keeps its worker draining work: a worker that quit
	// would strand the later shards and hang the test instead of failing.
	errs := make(chan error, shards)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				time.Sleep(jitter[s])
				holder := make([]int64, batch)
				base, _, err := x.Claim(s, sigs[s], holder, abort)
				if err != nil {
					errs <- err
					continue
				}
				got[s], bases[s] = holder, base
			}
		}()
	}
	for s := 0; s < shards; s++ {
		work <- s
	}
	close(work)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	for s := range want {
		if bases[s] != uint64(s*batch) {
			t.Fatalf("shard %d: base %d, want %d", s, bases[s], s*batch)
		}
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("shard %d pos %d: holder %d, want %d", s, i, got[s][i], want[s][i])
			}
		}
	}
	if claims, wait := x.WaitStats(); claims <= 0 || wait <= 0 {
		t.Fatalf("no shard waited for its turn (%d claims, %v): arrival was never out of order", claims, wait)
	}
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTurnstileAbort: a shard waiting on an earlier shard that never
// claims must be woken promptly by the abort channel, not hang the pool.
func TestTurnstileAbort(t *testing.T) {
	x := newTurnstile(spill.NewDiskSet("", 0))
	abort := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, _, err := x.Claim(1, []uint64{1, 2}, make([]int64, 2), abort) // shard 0 never claims
		errc <- err
	}()
	select {
	case err := <-errc:
		t.Fatalf("claim resolved before its turn: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	aborted := time.Now()
	close(abort)
	select {
	case err := <-errc:
		if err != errAborted {
			t.Fatalf("aborted claim returned %v, want errAborted", err)
		}
		if d := time.Since(aborted); d > time.Second {
			t.Fatalf("aborted claim took %v to return", d)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("aborted claim never returned")
	}
}

// TestTurnstileStickyError: an index failure fails the claim that hit it
// and every later claim, including one already waiting for its turn.
func TestTurnstileStickyError(t *testing.T) {
	// The spill directory sits under a regular file, so the first flush
	// (after the 1024-entry delta floor) cannot create its run.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	x := newTurnstile(spill.NewDiskSet(filepath.Join(blocker, "sigidx"), 1))
	defer x.Close()
	abort := make(chan struct{})

	waiting := make(chan error, 1)
	go func() {
		_, _, err := x.Claim(2, []uint64{1}, make([]int64, 1), abort)
		waiting <- err
	}()

	sigs := make([]uint64, 2000)
	for i := range sigs {
		sigs[i] = uint64(i)
	}
	_, _, first := x.Claim(0, sigs, make([]int64, len(sigs)), abort)
	if first == nil {
		t.Fatal("claim that overflowed into an unwritable spill dir succeeded")
	}
	if _, _, err := x.Claim(1, []uint64{5000}, make([]int64, 1), abort); err != first {
		t.Fatalf("later claim returned %v, want the sticky %v", err, first)
	}
	select {
	case err := <-waiting:
		if err != first {
			t.Fatalf("waiting claim returned %v, want the sticky %v", err, first)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiting claim never got its turn after the failure")
	}
}

// TestTurnstileClaimAllocs pins the in-turn claim path at zero
// allocations per batch: no per-shard bookkeeping, nothing per sample.
// Warm rounds reuse the same signatures so the set stops growing.
func TestTurnstileClaimAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc pinning is not meaningful in -short mode")
	}
	if raceDetectorEnabled {
		t.Skip("alloc counts shift under the race detector")
	}
	const batch = 4096
	sigs := make([]uint64, batch)
	for i := range sigs {
		sigs[i] = uint64(i % 512)
	}
	holder := make([]int64, batch)
	abort := make(chan struct{})
	x := newTurnstile(spill.NewDiskSet("", 0))
	shard := 0
	x.Claim(shard, sigs, holder, abort) // warm: populate the set
	shard++
	got := testing.AllocsPerRun(100, func() {
		x.Claim(shard, sigs, holder, abort)
		shard++
	})
	if got > 0 {
		t.Fatalf("in-turn claim allocates %.1f per %d-sig batch, want 0", got, batch)
	}
}
