package dist

import (
	"errors"
	"sort"
	"sync"
)

// The scheduler routes shard-stage work across workers. Every shard has
// a home worker (shard index mod worker count) so a healthy fleet gets
// a deterministic, balanced assignment; a shard is *stolen* — routed to
// a non-home worker — when its home is overloaded (straggler) or dead.
// A failed attempt (transport error, timeout, corrupt response) is a
// *retry*: the worker is marked dead and the shard re-routed. When
// every worker is dead the scheduler returns no worker and the caller
// degrades to in-process execution, which keeps exports byte-identical
// at the cost of distribution.

// stealThreshold is how many in-flight stages a home worker may hold
// before new shards are routed to an idler worker instead.
const stealThreshold = 2

// ErrNoWorkers is returned when every worker in the fleet is dead and
// the caller must degrade to in-process execution.
var ErrNoWorkers = errors.New("dist: no live workers")

// Route is one routing choice for a shard stage.
type Route struct {
	Worker *WorkerClient // nil: no live workers, run in-process
	Stolen bool          // routed away from the shard's home worker
	Why    string        // steal/fallback reason for the journal
}

type schedWorker struct {
	client   *WorkerClient
	inflight int
	dead     bool
}

// Scheduler routes shards to live workers with home affinity, work
// stealing and dead-worker avoidance. Safe for concurrent use.
type Scheduler struct {
	mu      sync.Mutex
	workers []*schedWorker
	stats   RunStats
}

// NewScheduler builds a scheduler over the given worker clients.
func NewScheduler(clients []*WorkerClient) *Scheduler {
	s := &Scheduler{}
	for _, c := range clients {
		s.workers = append(s.workers, &schedWorker{client: c})
		s.stats.Workers = append(s.stats.Workers, WorkerRunStat{Worker: c.ID, Addr: c.Addr})
	}
	return s
}

// Pick routes one shard stage: the home worker when it is alive and not
// overloaded, otherwise the least-loaded live worker (a steal), and a
// nil-worker fallback decision when the whole fleet is dead. The
// returned worker's in-flight count is incremented; pair with Done.
func (s *Scheduler) Pick(shard int) Route {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.workers) == 0 {
		return Route{Why: "no workers"}
	}
	home := s.workers[shard%len(s.workers)]
	if !home.dead && home.inflight < stealThreshold {
		home.inflight++
		return Route{Worker: home.client}
	}
	// Steal: least-loaded live non-home worker, lowest ID breaking ties.
	var best *schedWorker
	for _, w := range s.workers {
		if w.dead || w == home {
			continue
		}
		if best == nil || w.inflight < best.inflight {
			best = w
		}
	}
	why := "home worker busy"
	if home.dead {
		why = "home worker dead"
	}
	if best == nil {
		if home.dead {
			s.stats.Fallbacks++
			return Route{Why: "all workers dead"}
		}
		// Everyone else is dead; queue on the busy home worker.
		home.inflight++
		return Route{Worker: home.client}
	}
	best.inflight++
	s.stats.Workers[best.client.ID-1].Steals++
	s.stats.Steals++
	return Route{Worker: best.client, Stolen: true, Why: why}
}

// Done releases one in-flight slot on the worker and records the
// completed stage.
func (s *Scheduler) Done(w *WorkerClient) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.workers[w.ID-1]
	if sw.inflight > 0 {
		sw.inflight--
	}
	s.stats.Workers[w.ID-1].Stages++
}

// Fail records one failed stage attempt against the worker and marks it
// dead: a worker that produced a transport error, timeout or corrupt
// response is not trusted with further shards.
func (s *Scheduler) Fail(w *WorkerClient) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sw := s.workers[w.ID-1]
	if sw.inflight > 0 {
		sw.inflight--
	}
	sw.dead = true
	s.stats.Workers[w.ID-1].Retries++
	s.stats.Workers[w.ID-1].Dead = true
	s.stats.Retries++
}

// Alive reports how many workers are still live.
func (s *Scheduler) Alive() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, w := range s.workers {
		if !w.dead {
			n++
		}
	}
	return n
}

// Clients returns the worker clients in ID order (including dead ones).
func (s *Scheduler) Clients() []*WorkerClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*WorkerClient, len(s.workers))
	for i, w := range s.workers {
		out[i] = w.client
	}
	return out
}

// Live returns the clients still considered healthy.
func (s *Scheduler) Live() []*WorkerClient {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*WorkerClient
	for _, w := range s.workers {
		if !w.dead {
			out = append(out, w.client)
		}
	}
	return out
}

// Stats snapshots the accumulated run statistics.
func (s *Scheduler) Stats() RunStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats.clone()
}

// WorkerRunStat is one worker's tally for the run report. The byte
// counters account completed stage exchanges on the wire, and
// DeltaStages counts stages answered with a keep-mask delta instead of
// the full shard.
type WorkerRunStat struct {
	Worker      int    `json:"worker"`
	Addr        string `json:"addr"`
	Proto       int    `json:"proto,omitempty"` // wire protocol version
	Stages      int    `json:"stages"`          // completed shard stages
	Steals      int    `json:"steals"`          // stages this worker ran for another's shard
	Retries     int    `json:"retries"`
	DeltaStages int    `json:"delta_stages,omitempty"`
	BytesSent   int64  `json:"bytes_sent,omitempty"`
	BytesRecv   int64  `json:"bytes_recv,omitempty"`
	Dead        bool   `json:"dead,omitempty"`
}

// RunStats summarizes the distributed leg of a run: per-worker tallies
// plus fleet-wide retry/steal/fallback counts. It is carried on
// stream.Report via the Statser interface.
type RunStats struct {
	Workers     []WorkerRunStat `json:"workers"`
	Retries     int             `json:"retries"`
	Steals      int             `json:"steals"`
	Fallbacks   int             `json:"fallbacks"` // shards degraded to in-process
	DeltaStages int             `json:"delta_stages,omitempty"`
	BytesSent   int64           `json:"bytes_sent,omitempty"`
	BytesRecv   int64           `json:"bytes_recv,omitempty"`
	// RawBytesSent / RawBytesRecv were the uncompressed equivalents of
	// BytesSent / BytesRecv under the removed frame compression; they
	// always equal them now. They remain only so the benchmark harness,
	// which still reads them, compiles; a later benchmark-scoped change
	// deletes them.
	RawBytesSent int64 `json:"-"`
	RawBytesRecv int64 `json:"-"`
}

func (r RunStats) clone() RunStats {
	out := r
	out.Workers = append([]WorkerRunStat(nil), r.Workers...)
	return out
}

// Merge folds another run's stats into this one, matching workers by
// ID. Merging is associative and commutative so partial reports can be
// combined in any order.
func (r *RunStats) Merge(o RunStats) {
	byID := map[int]int{}
	for i, w := range r.Workers {
		byID[w.Worker] = i
	}
	for _, w := range o.Workers {
		if i, ok := byID[w.Worker]; ok {
			r.Workers[i].Stages += w.Stages
			r.Workers[i].Steals += w.Steals
			r.Workers[i].Retries += w.Retries
			r.Workers[i].DeltaStages += w.DeltaStages
			r.Workers[i].BytesSent += w.BytesSent
			r.Workers[i].BytesRecv += w.BytesRecv
			r.Workers[i].Proto = max(r.Workers[i].Proto, w.Proto)
			r.Workers[i].Dead = r.Workers[i].Dead || w.Dead
			if r.Workers[i].Addr == "" {
				r.Workers[i].Addr = w.Addr
			}
		} else {
			r.Workers = append(r.Workers, w)
		}
	}
	sort.Slice(r.Workers, func(i, j int) bool { return r.Workers[i].Worker < r.Workers[j].Worker })
	r.Retries += o.Retries
	r.Steals += o.Steals
	r.Fallbacks += o.Fallbacks
	r.DeltaStages += o.DeltaStages
	r.BytesSent += o.BytesSent
	r.BytesRecv += o.BytesRecv
	r.RawBytesSent += o.RawBytesSent
	r.RawBytesRecv += o.RawBytesRecv
}

// Statser is implemented by stage dispatchers that track distributed
// run statistics; the stream engine asserts for it when attaching
// dist stats to the run report.
type Statser interface {
	DistStats() *RunStats
}
