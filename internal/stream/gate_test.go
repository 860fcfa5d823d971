package stream

import (
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// The gate must bound concurrent holders exactly at its limit.
func TestGateBoundsInFlight(t *testing.T) {
	g := newGate(3)
	for i := 0; i < 3; i++ {
		if !g.acquire(nil) {
			t.Fatal("acquire under limit blocked or failed")
		}
	}
	acquired := make(chan bool, 1)
	go func() { acquired <- g.acquire(nil) }()
	select {
	case <-acquired:
		t.Fatal("4th acquire succeeded past limit 3")
	case <-time.After(20 * time.Millisecond):
	}
	g.release()
	if ok := <-acquired; !ok {
		t.Fatal("acquire failed after release")
	}
}

// Closing must fail every blocked acquirer and every later one.
func TestGateClose(t *testing.T) {
	g := newGate(1)
	g.acquire(nil)
	results := make(chan bool, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); results <- g.acquire(nil) }()
	}
	g.close()
	for i := 0; i < 2; i++ {
		if ok := <-results; ok {
			t.Fatal("acquire succeeded on a closed gate")
		}
	}
	wg.Wait()
	if g.acquire(nil) {
		t.Fatal("acquire after close succeeded")
	}
}

// A blocked acquire must report its wait time to the backpressure probe.
func TestGateReportsBackpressure(t *testing.T) {
	g := newGate(1)
	g.acquire(nil)
	var mu sync.Mutex
	var waited time.Duration
	done := make(chan struct{})
	go func() {
		g.acquire(func(d time.Duration) { mu.Lock(); waited = d; mu.Unlock() })
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	g.release()
	<-done
	mu.Lock()
	defer mu.Unlock()
	if waited <= 0 {
		t.Fatal("blocked acquire reported no wait")
	}
}

// Backpressure end-to-end: with a tiny in-flight allowance and a slow
// sink, the source must never run more than MaxInFlight shards ahead of
// the emitter.
func TestBackpressureBoundsInFlight(t *testing.T) {
	_, d := corpusWithDupes(t, 400)
	recipe := mustRecipe(t, `
project_name: backpressure
use_cache: false
process:
  - whitespace_normalization_mapper:
`)
	recipe.WorkDir = t.TempDir()
	eng, err := New(recipe, Options{ShardSize: 20, MaxInFlight: 3})
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	read, consumed, maxAhead := 0, 0, 0
	src, _ := NewDatasetSource(d, 20)
	counting := &countingSource{src: src, onNext: func() {
		mu.Lock()
		read++
		if ahead := read - consumed; ahead > maxAhead {
			maxAhead = ahead
		}
		mu.Unlock()
	}}
	sink := &slowSink{delay: time.Millisecond, onConsume: func() {
		mu.Lock()
		consumed++
		mu.Unlock()
	}}
	if _, err := eng.Run(counting, sink); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if maxAhead > 3 {
		t.Fatalf("source ran %d shards ahead; in-flight limit is 3", maxAhead)
	}
}

type countingSource struct {
	src    Source
	onNext func()
}

func (c *countingSource) Next() (*Shard, error) {
	sh, err := c.src.Next()
	if err == nil {
		c.onNext()
	}
	return sh, err
}
func (c *countingSource) Close() error { return c.src.Close() }

type slowSink struct {
	delay     time.Duration
	onConsume func()
}

func (s *slowSink) Consume(d *dataset.Dataset) error {
	time.Sleep(s.delay)
	s.onConsume()
	return nil
}
func (s *slowSink) Close() error { return nil }
