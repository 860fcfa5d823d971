package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/telemetry"
)

// memStore is an in-memory Store whose Put sleeps putDelay: the stand-in
// for a slow disk. It logs every Put and Delete.
type memStore struct {
	mu       sync.Mutex
	m        map[string]*dataset.Dataset
	puts     []string
	deletes  []string
	putDelay time.Duration
}

func newMemStore() *memStore { return &memStore{m: map[string]*dataset.Dataset{}} }

func (s *memStore) Get(key string) (*dataset.Dataset, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	return d.Clone(), true, nil
}

func (s *memStore) Put(key string, d *dataset.Dataset) error {
	time.Sleep(s.putDelay)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = d.Clone()
	s.puts = append(s.puts, key)
	return nil
}

func (s *memStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.m, key)
	s.deletes = append(s.deletes, key)
	return nil
}

const walkYAML = `
project_name: walk
use_cache: false
op_fusion: false
process:
  - whitespace_normalization_mapper:
  - lowercase_mapper:
  - word_num_filter:
      min_num: 3
`

func walkTexts() *dataset.Dataset {
	return dataset.FromTexts([]string{"Alpha  Beta Gamma", "delta", "Epsilon zeta  eta", "theta iota"})
}

// newWalk builds a walk over the whole plan of walkYAML, recording every
// step it reports.
func newWalk(t *testing.T, store Store) (*Walk, *[]Step) {
	t.Helper()
	e, err := NewExecutor(testRecipe(t, walkYAML))
	if err != nil {
		t.Fatal(err)
	}
	var steps []Step
	w := &Walk{Runner: e.Runner(), Ops: e.Plan().Ops(), NP: 1, Store: store,
		OnStep: func(s Step) error { steps = append(steps, s); return nil }}
	return w, &steps
}

// TestWalkTimesOpWithoutPut: an op's duration is its application alone,
// not the cache write after it — in the walk's steps and in the batch
// report built from them.
func TestWalkTimesOpWithoutPut(t *testing.T) {
	const delay = 100 * time.Millisecond
	store := newMemStore()
	store.putDelay = delay
	w, steps := newWalk(t, store)
	if _, err := w.Run(walkTexts(), "k0"); err != nil {
		t.Fatal(err)
	}
	if len(store.puts) != len(w.Ops) {
		t.Fatalf("%d puts for %d ops", len(store.puts), len(w.Ops))
	}
	for _, s := range *steps {
		if s.CacheHit || s.Duration >= delay {
			t.Errorf("step %s: hit=%v duration %v includes the %v put", s.Op.Name(), s.CacheHit, s.Duration, delay)
		}
	}

	r := testRecipe(t, walkYAML)
	e, err := NewExecutor(r)
	if err != nil {
		t.Fatal(err)
	}
	slow := newMemStore()
	slow.putDelay = delay
	e.store = slow
	_, rep, err := e.Run(walkTexts())
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range rep.OpStats {
		if st.Duration >= delay {
			t.Errorf("OpStat %s duration %v includes the %v put", st.Name, st.Duration, delay)
		}
	}
}

// TestWalkResume: a cold walk stores every op's output; a warm one serves
// every op from the per-op keys with the cold counts; a store holding
// only the stage-final entry (what a dispatched walk leaves) serves the
// whole run from it with the known entry and exit counts.
func TestWalkResume(t *testing.T) {
	store := newMemStore()
	w, cold := newWalk(t, store)
	want, err := w.Run(walkTexts(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	w2, warm := newWalk(t, store)
	got, err := w2.Run(walkTexts(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("warm walk result differs")
	}
	for i, s := range *warm {
		c := (*cold)[i]
		if !s.CacheHit || s.In != c.In || s.Out != c.Out || s.PlanIdx != c.PlanIdx {
			t.Errorf("warm step %d = %+v, cold %+v", i, s, c)
		}
	}

	final := newMemStore()
	final.m[store.puts[len(store.puts)-1]] = want
	w3, steps := newWalk(t, final)
	got, err = w3.Run(walkTexts(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() || len(*steps) != len(w3.Ops) {
		t.Fatalf("stage-final resume: %d steps", len(*steps))
	}
	for i, s := range *steps {
		wantIn := want.Len()
		if i == 0 {
			wantIn = walkTexts().Len()
		}
		if !s.CacheHit || s.In != wantIn || s.Out != want.Len() {
			t.Errorf("stage-final step %d = %+v", i, s)
		}
	}
	if len(final.puts) != 0 {
		t.Errorf("a fully resumed walk wrote %d entries", len(final.puts))
	}
}

// TestWalkResumesDeepestState: after the front-to-back probe misses, the
// remaining keys are probed deepest-first. A store holding only a middle
// state (what a checkpoint leaves) resumes there: the ops up to it are
// hits under the stage-final count rule, and only the ops after it run.
func TestWalkResumesDeepestState(t *testing.T) {
	store := newMemStore()
	w, cold := newWalk(t, store)
	want, err := w.Run(walkTexts(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	mid := newMemStore()
	mid.m[store.puts[1]] = store.m[store.puts[1]]
	w2, steps := newWalk(t, mid)
	got, err := w2.Run(walkTexts(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() || len(*steps) != len(w2.Ops) {
		t.Fatalf("mid-state resume: %d steps", len(*steps))
	}
	entry, exit := walkTexts().Len(), (*cold)[1].Out
	for i, s := range *steps {
		switch {
		case i == 0 && (!s.CacheHit || s.In != entry || s.Out != exit):
			t.Errorf("skipped step 0 = %+v, want a hit %d -> %d", s, entry, exit)
		case i == 1 && (!s.CacheHit || s.In != exit || s.Out != exit || s.Duration != 0):
			t.Errorf("resumed step 1 = %+v, want a hit %d -> %d with no duration", s, exit, exit)
		case i == 2 && (s.CacheHit || s.In != (*cold)[2].In || s.Out != (*cold)[2].Out):
			t.Errorf("step 2 = %+v, want the cold execution %+v", s, (*cold)[2])
		}
	}
	if len(mid.puts) != 1 || mid.puts[0] != store.puts[2] {
		t.Errorf("mid-state resume wrote %v, want only the last op's state", mid.puts)
	}
}

// TestWalkKeepLatest: a keep-latest walk deletes each state once the
// next one has committed, so one state of the chain is left: the last.
// A walk resumed from a state deletes that state when it moves past it,
// in-process or dispatched.
func TestWalkKeepLatest(t *testing.T) {
	store := newMemStore()
	w, _ := newWalk(t, store)
	w.KeepLatest = true
	if _, err := w.Run(walkTexts(), "k0"); err != nil {
		t.Fatal(err)
	}
	last := store.puts[len(store.puts)-1]
	if len(store.m) != 1 || store.m[last] == nil {
		t.Fatalf("keep-latest walk left %d states, want only the last", len(store.m))
	}
	if want := store.puts[:len(store.puts)-1]; fmt.Sprint(store.deletes) != fmt.Sprint(want) {
		t.Errorf("deleted %v, want %v in commit order", store.deletes, want)
	}

	mid := newMemStore()
	mid.m[store.puts[0]] = store.m[last] // any dataset: only the keys matter here
	w2, _ := newWalk(t, mid)
	w2.KeepLatest = true
	if _, err := w2.Run(walkTexts(), "k0"); err != nil {
		t.Fatal(err)
	}
	if len(mid.m) != 1 || mid.m[last] == nil || mid.deletes[0] != store.puts[0] {
		t.Fatalf("resumed keep-latest walk: states %d, deletes %v", len(mid.m), mid.deletes)
	}

	// A dispatched suffix commits its one result, then drops the state it
	// resumed from.
	local, _ := newWalk(t, nil)
	remote := newMemStore()
	remote.m[store.puts[0]] = store.m[last]
	w3, _ := newWalk(t, remote)
	w3.KeepLatest = true
	w3.Remote = func(_, _ int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
		out, err := local.Run(d, "")
		return out, nil, 1, err
	}
	if _, err := w3.Run(walkTexts(), "k0"); err != nil {
		t.Fatal(err)
	}
	if len(remote.m) != 1 || remote.m[last] == nil || fmt.Sprint(remote.deletes) != fmt.Sprint(store.puts[:1]) {
		t.Fatalf("dispatched keep-latest walk: states %d, deletes %v", len(remote.m), remote.deletes)
	}
}

// TestWalkRemote: the remote step runs the uncached suffix and its
// result is stored once, under the final key; a dead fleet makes the
// walk execute the suffix locally, op by op, with identical output.
func TestWalkRemote(t *testing.T) {
	local, _ := newWalk(t, nil)
	want, err := local.Run(walkTexts(), "")
	if err != nil {
		t.Fatal(err)
	}

	store := newMemStore()
	w, steps := newWalk(t, store)
	var from, to int
	w.Remote = func(f, tt int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
		from, to = f, tt
		out, err := local.Run(d, "")
		flows := []dist.OpFlow{{PlanIdx: 0, In: 4, Out: 4}, {PlanIdx: 1, In: 4, Out: 4}, {PlanIdx: 2, In: 4, Out: int64(out.Len())}}
		return out, flows, 2, err
	}
	got, err := w.Run(walkTexts(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() || from != 0 || to != len(w.Ops) {
		t.Fatalf("remote walk: ops [%d,%d)", from, to)
	}
	if len(store.puts) != 1 || len(*steps) != len(w.Ops) || (*steps)[0].Worker != 2 {
		t.Fatalf("remote walk: %d puts, steps %+v", len(store.puts), *steps)
	}

	dead := newMemStore()
	w2, steps2 := newWalk(t, dead)
	w2.Remote = func(int, int, *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
		return nil, nil, 0, dist.ErrNoWorkers
	}
	got, err = w2.Run(walkTexts(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() || len(dead.puts) != len(w2.Ops) || (*steps2)[0].Worker != 0 {
		t.Fatalf("fallback walk: %d puts, steps %+v", len(dead.puts), *steps2)
	}

	w4, _ := newWalk(t, nil)
	w4.Remote = func(_, _ int, d *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
		return d, []dist.OpFlow{{PlanIdx: len(w4.Ops)}}, 1, nil
	}
	if _, err := w4.Run(walkTexts(), ""); err == nil {
		t.Fatal("a remote flow outside the requested ops was accepted")
	}

	w3, _ := newWalk(t, nil)
	boom := errors.New("boom")
	w3.Remote = func(int, int, *dataset.Dataset) (*dataset.Dataset, []dist.OpFlow, int, error) {
		return nil, nil, 0, boom
	}
	if _, err := w3.Run(walkTexts(), ""); !errors.Is(err, boom) {
		t.Fatalf("remote error = %v, want boom", err)
	}
}

// TestEmitOp: a hit is a cache_hit event with counts and no wall time;
// an execution an op_complete event with its own span and duration.
func TestEmitOp(t *testing.T) {
	tele, err := telemetry.NewRun(telemetry.RunOptions{JournalDir: t.TempDir(), RunID: "emit"})
	if err != nil {
		t.Fatal(err)
	}
	tele.Begin("batch", "emit", "", 0)
	w, _ := newWalk(t, nil)
	op := w.Ops[0]
	site := EventSite{Parent: 7, Phase: 1, Shard: 3}
	EmitOp(tele, site, Step{Op: op, PlanIdx: 0, In: 4, Out: 4, Duration: time.Second, CacheHit: true})
	EmitOp(tele, site, Step{Op: op, PlanIdx: 0, In: 4, Out: 3, Duration: time.Second, Workers: 1, Worker: 2})
	tele.End("ok", 4, 3, nil, nil)
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := telemetry.ReadJournal(tele.JournalPath())
	if err != nil {
		t.Fatal(err)
	}
	var hit, done *telemetry.Event
	for i := range events {
		switch events[i].Type {
		case telemetry.EvCacheHit:
			hit = &events[i]
		case telemetry.EvOpComplete:
			done = &events[i]
		}
	}
	if hit == nil || hit.DurNS != 0 || hit.Span != 0 || hit.In != 4 || hit.Parent != 7 || hit.Shard != 3 || hit.Kind != "mapper" {
		t.Errorf("cache_hit event = %+v", hit)
	}
	if done == nil || done.DurNS != int64(time.Second) || done.Span == 0 || done.Out != 3 || done.Worker != 2 || done.Phase != 1 {
		t.Errorf("op_complete event = %+v", done)
	}
}
