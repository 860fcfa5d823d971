package stream

import (
	"sync"
	"time"
)

// gate bounds the shards in flight — processing, queued, or waiting for
// ordered emission. The source blocks in acquire until the emitter
// releases a slot, which is how backpressure reaches the reader when the
// sink or an index stage falls behind.
type gate struct {
	mu       sync.Mutex
	cond     *sync.Cond
	limit    int
	inflight int
	closed   bool
}

func newGate(limit int) *gate {
	if limit < 1 {
		limit = 1
	}
	g := &gate{limit: limit}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// acquire blocks until a slot is free (or the gate closes — then false).
// blocked, when non-nil, receives the time spent waiting if the call had
// to wait at all.
func (g *gate) acquire(blocked func(time.Duration)) bool {
	g.mu.Lock()
	waited := false
	var start time.Time
	for g.inflight >= g.limit && !g.closed {
		if !waited {
			waited = true
			start = time.Now()
		}
		g.cond.Wait()
	}
	if waited && blocked != nil {
		blocked(time.Since(start))
	}
	if g.closed {
		g.mu.Unlock()
		return false
	}
	g.inflight++
	g.mu.Unlock()
	return true
}

// release frees one slot.
func (g *gate) release() {
	g.mu.Lock()
	g.inflight--
	g.cond.Broadcast()
	g.mu.Unlock()
}

// close aborts the gate: every current and future acquire returns false.
func (g *gate) close() {
	g.mu.Lock()
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
}
