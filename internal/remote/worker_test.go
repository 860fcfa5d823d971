package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/ops"
	_ "repro/internal/ops/all"
	"repro/internal/plan"
	"repro/internal/sample"
)

// testWorker is a WorkerServer behind an in-process HTTP server, plus
// the coordinator-side view of the recipe it is configured with: a
// mapper, a filter run and a deduplicator (not shard-local).
type testWorker struct {
	addr   string
	client *dist.WorkerClient
	recipe *config.Recipe
	plan   *plan.Plan
}

func newTestWorker(t *testing.T) *testWorker {
	t.Helper()
	srv := httptest.NewServer((&WorkerServer{ID: 1, WorkDir: t.TempDir()}).Handler())
	t.Cleanup(srv.Close)
	r := config.Default()
	r.UseCache = false
	r.UseProfiles = false
	r.WorkDir = t.TempDir()
	r.Process = []config.OpSpec{
		{Name: "whitespace_normalization_mapper"},
		{Name: "text_length_filter", Params: ops.Params{"min_len": 12}},
		{Name: "word_num_filter", Params: ops.Params{"min_num": 3}},
		{Name: "document_deduplicator"},
	}
	p, err := plan.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Listener.Addr().String()
	return &testWorker{addr: addr, client: dist.NewWorkerClient(1, addr, 10*time.Second), recipe: r, plan: p}
}

func (tw *testWorker) request(t *testing.T) dist.ConfigureRequest {
	t.Helper()
	raw, err := json.Marshal(tw.recipe)
	if err != nil {
		t.Fatal(err)
	}
	return dist.ConfigureRequest{
		Proto: dist.ProtoVersion, RunID: "run", Recipe: raw, Fingerprint: PlanFingerprint(tw.plan),
	}
}

func (tw *testWorker) configure(t *testing.T) {
	t.Helper()
	if err := tw.client.Configure(tw.request(t)); err != nil {
		t.Fatal(err)
	}
}

// nodesOf returns the plan indexes of the first shard-local mapper, the
// contiguous filter run after it, and the first node that is not
// shard-local.
func (tw *testWorker) nodesOf(t *testing.T) (mapper, filterFrom, filterTo, notLocal int) {
	t.Helper()
	mapper, filterFrom, notLocal = -1, -1, -1
	for i := range tw.plan.Nodes {
		n := &tw.plan.Nodes[i]
		kind := core.OpKind(n.Op)
		switch {
		case n.Capability != plan.ShardLocal:
			if notLocal < 0 {
				notLocal = i
			}
		case kind == "mapper" && mapper < 0:
			mapper = i
		case kind == "filter" && filterFrom < 0:
			filterFrom, filterTo = i, i+1
		case kind == "filter" && filterTo == i:
			filterTo = i + 1
		}
	}
	if mapper < 0 || filterFrom < 0 || notLocal < 0 {
		t.Fatalf("plan lacks a mapper, a filter or a non-shard-local node: %s", tw.plan.Describe())
	}
	return
}

func shard() *dataset.Dataset {
	texts := []string{
		"short",
		"a   document   with   plenty   of   words",
		"two words",
		"another  reasonably  long  document  here",
		"tiny",
		"the last sample has enough words too",
	}
	samples := make([]*sample.Sample, len(texts))
	for i, s := range texts {
		samples[i] = sample.New(s)
	}
	return dataset.New(samples)
}

func TestConfigureRejects(t *testing.T) {
	cases := map[string]struct {
		mutate func(*dist.ConfigureRequest)
		reason string
	}{
		"older protocol":    {func(r *dist.ConfigureRequest) { r.Proto = 1 }, "proto 1"},
		"wrong fingerprint": {func(r *dist.ConfigureRequest) { r.Fingerprint = "4:0000000000000000" }, "fingerprint"},
		"garbage recipe":    {func(r *dist.ConfigureRequest) { r.Recipe = json.RawMessage(`"not a recipe"`) }, "recipe"},
		"unknown op": {func(r *dist.ConfigureRequest) {
			r.Recipe = json.RawMessage(`{"process":[{"name":"no_such_op"}]}`)
		}, "plan"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			tw := newTestWorker(t)
			req := tw.request(t)
			c.mutate(&req)
			err := tw.client.Configure(req)
			var rej *dist.RejectError
			if !errors.As(err, &rej) {
				t.Fatalf("got %v, want a RejectError", err)
			}
			if !strings.Contains(rej.Reason, c.reason) {
				t.Errorf("rejection %q does not mention %q", rej.Reason, c.reason)
			}
		})
	}
}

// postStage sends one raw stage request, letting the header disagree
// with the payload, and returns the response header.
func postStage(t *testing.T, addr string, h dist.RunHeader, d *dataset.Dataset) dist.ResultHeader {
	t.Helper()
	var body bytes.Buffer
	if _, _, err := dist.WriteFrame2(&body, h, d, false); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+addr+"/v2/run", "application/x-dj-frame2", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rh dist.ResultHeader
	if err := dist.NewFrame2Reader(resp.Body).Header(&rh); err != nil {
		t.Fatal(err)
	}
	return rh
}

// TestStageErrorsAreRetryable: a stage the worker cannot run comes back
// as an error header, which the client surfaces as a plain error — the
// pool retries it elsewhere — never as a configure rejection.
func TestStageErrorsAreRetryable(t *testing.T) {
	probe := newTestWorker(t)
	mapper, _, _, notLocal := probe.nodesOf(t)
	nodes := len(probe.plan.Nodes)
	cases := map[string]struct {
		configured bool
		h          dist.RunHeader
		extra      int // samples the header claims beyond the payload
		want       string
	}{
		"before configure":  {false, dist.RunHeader{RunID: "run", FromOp: mapper, ToOp: mapper + 1}, 0, "not configured"},
		"wrong run ID":      {true, dist.RunHeader{RunID: "other", FromOp: mapper, ToOp: mapper + 1}, 0, "not configured for run other"},
		"range past plan":   {true, dist.RunHeader{RunID: "run", FromOp: 0, ToOp: nodes + 1}, 0, "outside plan"},
		"empty range":       {true, dist.RunHeader{RunID: "run", FromOp: 1, ToOp: 1}, 0, "outside plan"},
		"not shard-local":   {true, dist.RunHeader{RunID: "run", FromOp: notLocal, ToOp: notLocal + 1}, 0, "not shard-local"},
		"sample count skew": {true, dist.RunHeader{RunID: "run", FromOp: mapper, ToOp: mapper + 1}, 1, "payload has"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			tw := newTestWorker(t)
			if c.configured {
				tw.configure(t)
			}
			d := shard()
			h := c.h
			h.Samples = d.Len() + c.extra
			if rh := postStage(t, tw.addr, h, d); !strings.Contains(rh.Error, c.want) {
				t.Errorf("error header %q does not mention %q", rh.Error, c.want)
			}
			if c.extra != 0 {
				return // the client always sends a consistent header
			}
			_, _, _, err := tw.client.RunStage(c.h, d)
			var rej *dist.RejectError
			if err == nil || errors.As(err, &rej) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("RunStage error %v: want a plain error mentioning %q", err, c.want)
			}
		})
	}
}

// TestStageResponses: a filter-only range asked for a delta answers with
// a keep mask over the coordinator's own samples; a mapper range answers
// with a full frame. Either way the result is what the ops produce
// in-process.
func TestStageResponses(t *testing.T) {
	tw := newTestWorker(t)
	tw.configure(t)
	mapper, filterFrom, filterTo, _ := tw.nodesOf(t)
	runner := core.NewOpRunner(tw.plan.Built(), tw.recipe.Process, nil)
	local := func(from, to int) *dataset.Dataset {
		d := shard()
		for i := from; i < to; i++ {
			var err error
			if d, err = runner.ApplyOp(tw.plan.Nodes[i].Op, d, 1); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	sameJSONL := func(got, want *dataset.Dataset) {
		t.Helper()
		var a, b bytes.Buffer
		if err := got.WriteJSONL(&a); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Errorf("worker result differs from in-process:\n%s\nwant:\n%s", a.String(), b.String())
		}
	}

	in := shard()
	h := dist.RunHeader{RunID: "run", Shard: 3, FromOp: filterFrom, ToOp: filterTo, Delta: true}
	out, rh, ws, err := tw.client.RunStage(h, in)
	if err != nil {
		t.Fatal(err)
	}
	if !ws.Delta || !rh.Delta {
		t.Fatalf("filter-only range answered a full frame (ws %+v)", ws)
	}
	if out.Len() == 0 || out.Len() == in.Len() {
		t.Fatalf("filters kept %d of %d: the mask exercises nothing", out.Len(), in.Len())
	}
	for _, s := range out.Samples {
		if !containsPtr(in.Samples, s) {
			t.Fatal("delta result is not a subset of the coordinator's samples")
		}
	}
	sameJSONL(out, local(filterFrom, filterTo))

	h = dist.RunHeader{RunID: "run", Shard: 4, FromOp: mapper, ToOp: mapper + 1, Delta: true}
	out, rh, ws, err = tw.client.RunStage(h, shard())
	if err != nil {
		t.Fatal(err)
	}
	if ws.Delta || rh.Delta {
		t.Fatal("mapper range answered a delta")
	}
	if len(rh.Flows) != 1 || rh.Flows[0].PlanIdx != mapper {
		t.Errorf("flows %+v, want one for plan node %d", rh.Flows, mapper)
	}
	sameJSONL(out, local(mapper, mapper+1))
}

func containsPtr(all []*sample.Sample, s *sample.Sample) bool {
	for _, x := range all {
		if x == s {
			return true
		}
	}
	return false
}

func TestParseFault(t *testing.T) {
	good := map[string]Fault{
		"":              {},
		"crash":         {Mode: "crash"},
		"hang":          {Mode: "hang"},
		"corrupt":       {Mode: "corrupt"},
		"crash:after=2": {Mode: "crash", After: 2},
		"hang:after=0":  {Mode: "hang"},
	}
	for spec, want := range good {
		got, err := ParseFault(spec)
		if err != nil || got != want {
			t.Errorf("ParseFault(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
		if got.Active() != (spec != "") {
			t.Errorf("ParseFault(%q).Active() = %v", spec, got.Active())
		}
	}
	for _, spec := range []string{"explode", "crash:after", "crash:before=1", "crash:after=-1", "crash:after=x"} {
		if f, err := ParseFault(spec); err == nil {
			t.Errorf("ParseFault(%q) accepted as %+v", spec, f)
		}
	}
}

func TestDeltaEligible(t *testing.T) {
	filterOnly := []bool{true, true, false, true}
	cases := []struct {
		from, to int
		want     bool
	}{
		{0, 1, true},
		{0, 2, true},
		{3, 4, true},
		{0, 3, false},  // spans a mapper
		{2, 3, false},  // the mapper alone
		{1, 1, false},  // empty
		{2, 1, false},  // inverted
		{-1, 1, false}, // before the plan
		{3, 5, false},  // past the plan
	}
	for _, c := range cases {
		if got := deltaEligible(filterOnly, c.from, c.to); got != c.want {
			t.Errorf("deltaEligible(%d, %d) = %v, want %v", c.from, c.to, got, c.want)
		}
	}
}
