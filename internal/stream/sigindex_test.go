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
// duplicate-heavy signature stream, and checks every verdict against a
// serial first-occurrence reference. Run under -race this doubles as the
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

	// Serial reference: first occurrence in (shard, position) order.
	want := make([][]bool, shards)
	seen := map[uint64]struct{}{}
	for s := range sigs {
		want[s] = make([]bool, batch)
		for i, sig := range sigs[s] {
			if _, dup := seen[sig]; !dup {
				seen[sig] = struct{}{}
				want[s][i] = true
			}
		}
	}

	x := newTurnstile(spill.NewDiskSet("", 0))
	got := make([][]bool, shards)
	abort := make(chan struct{})
	// Shards are handed out in index order, as the engine's pool does:
	// that keeps the lowest in-flight shard held and the turnstile live.
	work := make(chan int)
	errs := make(chan error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				time.Sleep(jitter[s])
				novel := make([]bool, batch)
				if _, err := x.Claim(s, sigs[s], novel, abort); err != nil {
					errs <- err
					return
				}
				got[s] = novel
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
		for i := range want[s] {
			if got[s][i] != want[s][i] {
				t.Fatalf("shard %d pos %d: novel=%v, want %v", s, i, got[s][i], want[s][i])
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
		novel := make([]bool, 2)
		_, err := x.Claim(1, []uint64{1, 2}, novel, abort) // shard 0 never claims
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
		_, err := x.Claim(2, []uint64{1}, make([]bool, 1), abort)
		waiting <- err
	}()

	sigs := make([]uint64, 2000)
	for i := range sigs {
		sigs[i] = uint64(i)
	}
	_, first := x.Claim(0, sigs, make([]bool, len(sigs)), abort)
	if first == nil {
		t.Fatal("claim that overflowed into an unwritable spill dir succeeded")
	}
	if _, err := x.Claim(1, []uint64{5000}, make([]bool, 1), abort); err != first {
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
	novel := make([]bool, batch)
	abort := make(chan struct{})
	x := newTurnstile(spill.NewDiskSet("", 0))
	shard := 0
	x.Claim(shard, sigs, novel, abort) // warm: populate the set
	shard++
	got := testing.AllocsPerRun(100, func() {
		x.Claim(shard, sigs, novel, abort)
		shard++
	})
	if got > 0 {
		t.Fatalf("in-turn claim allocates %.1f per %d-sig batch, want 0", got, batch)
	}
}
