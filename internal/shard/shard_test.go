package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/wire"
)

// fakeGrid is a synthetic 8-point lattice whose evaluation is pure
// arithmetic, so coordinator mechanics (leasing, hedging, re-dispatch,
// journaling) are tested without paying for real sweeps.
func fakeGrid() *core.Grid {
	return &core.Grid{
		Kind: "alu-depth", Tech: "organic", Wire: true, MaxStages: 8, N: 8,
		Key:  func(i int) string { return fmt.Sprintf("pt/%d", i) },
		Eval: func(ctx context.Context, i int) (any, error) { return i * i, nil },
	}
}

// fakePeer scripts one worker: fn answers each lease, calls counts
// dispatches.
type fakePeer struct {
	name  string
	calls atomic.Int64
	fn    func(ctx context.Context, req *Request) (*Result, error)
}

func (p *fakePeer) Name() string { return p.name }

func (p *fakePeer) Exec(ctx context.Context, req *Request) (*Result, error) {
	p.calls.Add(1)
	return p.fn(ctx, req)
}

// answer evaluates a lease the way the fake grid would, so coordinator
// output is comparable against core.EvalLocal byte for byte.
func answer(req *Request) *Result {
	res := &Result{Version: Version, Kind: req.Kind, Worker: "fake", Points: make([]PointResult, len(req.Indices))}
	for i, idx := range req.Indices {
		v, _ := json.Marshal(idx * idx)
		res.Points[i] = PointResult{Index: idx, Key: fmt.Sprintf("pt/%d", idx), Value: v}
	}
	return res
}

func okPeer(name string) *fakePeer {
	return &fakePeer{name: name, fn: func(ctx context.Context, req *Request) (*Result, error) {
		return answer(req), nil
	}}
}

func indices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// TestCoordinatorMergesLikeLocal: the coordinator's Evaluate over fake
// peers returns exactly what the in-process reference evaluator
// returns, index for index and byte for byte.
func TestCoordinatorMergesLikeLocal(t *testing.T) {
	g := fakeGrid()
	c := New(Options{Batch: 3, HedgeAfter: -1}, okPeer("w1"), okPeer("w2"))
	got, err := c.Evaluate(context.Background(), g, indices(g.N))
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EvalLocal(context.Background(), g, indices(g.N))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sharded evaluation diverged:\n got %+v\nwant %+v", got, want)
	}
	if st := c.Status(); !st.Enabled || st.Leases != 3 || st.Redispatches != 0 {
		t.Errorf("status = %+v, want 3 clean leases", st)
	}
}

// TestCoordinatorRedispatch: a failed dispatch re-dispatches the lease
// (with backoff) until a healthy attempt answers.
func TestCoordinatorRedispatch(t *testing.T) {
	g := fakeGrid()
	flaky := &fakePeer{name: "flaky"}
	flaky.fn = func(ctx context.Context, req *Request) (*Result, error) {
		if flaky.calls.Load() == 1 {
			return nil, errors.New("transient worker crash")
		}
		return answer(req), nil
	}
	c := New(Options{Batch: 8, HedgeAfter: -1}, flaky)
	got, err := c.Evaluate(context.Background(), g, indices(g.N))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != g.N {
		t.Fatalf("got %d points, want %d", len(got), g.N)
	}
	if n := c.stats.Redispatches.Load(); n < 1 {
		t.Errorf("redispatches = %d, want >= 1", n)
	}
}

// TestCoordinatorDispatchBudget: a peer that never answers healthily
// exhausts MaxDispatches and the lease fails with the last error.
func TestCoordinatorDispatchBudget(t *testing.T) {
	g := fakeGrid()
	dead := &fakePeer{name: "dead", fn: func(ctx context.Context, req *Request) (*Result, error) {
		return nil, errors.New("kaput")
	}}
	c := New(Options{Batch: 8, HedgeAfter: -1, MaxDispatches: 2, BreakerThreshold: 10}, dead)
	_, err := c.Evaluate(context.Background(), g, indices(g.N))
	if err == nil {
		t.Fatal("want terminal lease error after exhausting dispatches")
	}
	if got := dead.calls.Load(); got != 2 {
		t.Errorf("dispatches = %d, want exactly MaxDispatches = 2", got)
	}
}

// TestCoordinatorRejectsForeignKeys: a worker that answers one point
// under a key the coordinator's grid does not give it (it built a
// different grid) is never merged — every dispatch is rejected and the
// lease fails. A grid the shard protocol cannot name is refused before
// any dispatch.
func TestCoordinatorRejectsForeignKeys(t *testing.T) {
	g := fakeGrid()
	foreign := &fakePeer{name: "foreign", fn: func(ctx context.Context, req *Request) (*Result, error) {
		res := answer(req)
		res.Points[len(res.Points)-1].Key = "alu/silicon/nowire/k0/n8"
		return res, nil
	}}
	c := New(Options{Batch: 8, HedgeAfter: -1, MaxDispatches: 2, BreakerThreshold: 10}, foreign)
	_, err := c.Evaluate(context.Background(), g, indices(g.N))
	if err == nil || !strings.Contains(err.Error(), "key") {
		t.Fatalf("err = %v, want the foreign key rejected", err)
	}
	if got := foreign.calls.Load(); got != 2 {
		t.Errorf("dispatches = %d, want MaxDispatches = 2 (each answer rejected)", got)
	}

	dry := fakeGrid()
	dry.Wire = false
	if _, err := c.Evaluate(context.Background(), dry, indices(dry.N)); err == nil {
		t.Fatal("a wire-off grid was leased")
	}
	if got := foreign.calls.Load(); got != 2 {
		t.Errorf("wire-off grid dispatched %d more leases, want none", got-2)
	}
}

// TestCoordinatorHedgeWins: a straggling primary is hedged onto the
// second peer after the hedge window, and the hedge's answer wins.
func TestCoordinatorHedgeWins(t *testing.T) {
	g := fakeGrid()
	slow := &fakePeer{name: "slow", fn: func(ctx context.Context, req *Request) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	fast := okPeer("fast")
	// Round-robin starts at peer 0, so slow is deterministically the
	// primary of the single lease.
	c := New(Options{Batch: 8, HedgeAfter: 10 * time.Millisecond, LeaseTimeout: 30 * time.Second}, slow, fast)
	got, err := c.Evaluate(context.Background(), g, indices(g.N))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != g.N {
		t.Fatalf("got %d points, want %d", len(got), g.N)
	}
	if c.stats.Hedges.Load() != 1 || c.stats.HedgesWon.Load() != 1 {
		t.Errorf("hedges = %d won = %d, want 1 and 1",
			c.stats.Hedges.Load(), c.stats.HedgesWon.Load())
	}
	if fast.calls.Load() != 1 {
		t.Errorf("hedge peer answered %d leases, want 1", fast.calls.Load())
	}
}

// TestCoordinatorLeaseTimeout: a primary that never answers times the
// lease out, and the re-dispatch (here round-robined onto the healthy
// peer) completes it.
func TestCoordinatorLeaseTimeout(t *testing.T) {
	g := fakeGrid()
	hung := &fakePeer{name: "hung", fn: func(ctx context.Context, req *Request) (*Result, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}}
	good := okPeer("good")
	c := New(Options{Batch: 8, HedgeAfter: -1, LeaseTimeout: 20 * time.Millisecond}, hung, good)
	got, err := c.Evaluate(context.Background(), g, indices(g.N))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != g.N {
		t.Fatalf("got %d points, want %d", len(got), g.N)
	}
	if c.stats.Redispatches.Load() < 1 {
		t.Errorf("redispatches = %d, want >= 1 after lease timeout", c.stats.Redispatches.Load())
	}
}

// TestCoordinatorConfigMismatchAborts: a 409-class answer is terminal —
// no re-dispatch can fix a lease bound to another configuration.
func TestCoordinatorConfigMismatchAborts(t *testing.T) {
	g := fakeGrid()
	p := &fakePeer{name: "other-config", fn: func(ctx context.Context, req *Request) (*Result, error) {
		return nil, fmt.Errorf("peer says: %w", ErrConfigMismatch)
	}}
	c := New(Options{Batch: 8, HedgeAfter: -1}, p)
	_, err := c.Evaluate(context.Background(), g, indices(g.N))
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("err = %v, want ErrConfigMismatch", err)
	}
	if p.calls.Load() != 1 {
		t.Errorf("dispatches = %d, want 1 (mismatch must not re-dispatch)", p.calls.Load())
	}
	if c.stats.Redispatches.Load() != 0 {
		t.Errorf("redispatches = %d, want 0", c.stats.Redispatches.Load())
	}
}

// TestCoordinatorKillResume: leases journal through the context's
// checkpoint, so a second coordinator over the same journal replays
// every lease byte-identically without dispatching at all — the
// kill-resume contract.
func TestCoordinatorKillResume(t *testing.T) {
	g := fakeGrid()
	path := filepath.Join(t.TempDir(), "journal.bdj")
	meta := checkpoint.Meta{Tool: "test", Label: "shard", ConfigDigest: "d"}

	jnl, _, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	ctx := runner.WithCheckpoint(context.Background(), jnl)
	first := New(Options{Batch: 3, HedgeAfter: -1}, okPeer("w"))
	want, err := first.Evaluate(ctx, g, indices(g.N))
	if err != nil {
		t.Fatal(err)
	}
	if err := jnl.Close(); err != nil {
		t.Fatal(err)
	}

	// "Kill" the coordinator; the resumed one must never dispatch.
	jnl2, rec, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if rec.Records == 0 {
		t.Fatalf("journal did not persist any lease records (recovery %+v)", rec)
	}
	ctx = runner.WithCheckpoint(context.Background(), jnl2)
	mustNotDispatch := &fakePeer{name: "dead", fn: func(ctx context.Context, req *Request) (*Result, error) {
		return nil, errors.New("resumed coordinator dispatched a journaled lease")
	}}
	second := New(Options{Batch: 3, HedgeAfter: -1}, mustNotDispatch)
	got, err := second.Evaluate(ctx, g, indices(g.N))
	if err != nil {
		t.Fatal(err)
	}
	if mustNotDispatch.calls.Load() != 0 {
		t.Errorf("resumed run dispatched %d leases, want 0", mustNotDispatch.calls.Load())
	}
	if second.stats.Replayed.Load() != 3 {
		t.Errorf("replayed = %d, want 3 leases", second.stats.Replayed.Load())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resumed results diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestLeaseValuesValidation: short, duplicate-index, empty-value, and
// foreign-key worker answers are all rejected (and so re-dispatched by
// the lease loop) instead of corrupting the merge.
func TestLeaseValuesValidation(t *testing.T) {
	g := fakeGrid()
	idxs := []int{0, 1, 2}
	cases := []struct {
		name string
		res  *Result
	}{
		{"short", &Result{Points: []PointResult{{Index: 0, Value: json.RawMessage("1")}}}},
		{"unleased", answerWith(t, []int{0, 1, 7})},
		{"duplicate", answerWith(t, []int{0, 1, 1})},
		{"empty value", &Result{Points: []PointResult{
			{Index: 0, Key: "pt/0", Value: json.RawMessage("1")},
			{Index: 1, Key: "pt/1", Value: json.RawMessage("1")},
			{Index: 2, Key: "pt/2"},
		}}},
		{"foreign key", &Result{Points: []PointResult{
			{Index: 0, Key: "pt/0", Value: json.RawMessage("1")},
			{Index: 1, Key: "other/1", Value: json.RawMessage("1")},
			{Index: 2, Key: "pt/2", Value: json.RawMessage("4")},
		}}},
	}
	for _, tc := range cases {
		if _, err := leaseValues(g, idxs, tc.res); err == nil {
			t.Errorf("%s: leaseValues accepted an invalid worker answer", tc.name)
		}
	}
	good := answerWith(t, idxs)
	vals, err := leaseValues(g, idxs, good)
	if err != nil {
		t.Fatalf("valid answer rejected: %v", err)
	}
	if len(vals) != len(idxs) {
		t.Fatalf("got %d values, want %d", len(vals), len(idxs))
	}
	// An annotated point (partial-results posture) needs no value.
	annotated := &Result{Points: []PointResult{
		{Index: 0, Key: "pt/0", Value: json.RawMessage("1")},
		{Index: 1, Key: "pt/1", Err: "error:injected"},
		{Index: 2, Key: "pt/2", Value: json.RawMessage("4")},
	}}
	if _, err := leaseValues(g, idxs, annotated); err != nil {
		t.Errorf("annotated point rejected: %v", err)
	}
}

func answerWith(t *testing.T, idxs []int) *Result {
	t.Helper()
	return answer(&Request{Kind: "alu-depth", Indices: idxs})
}

// TestPartition: contiguous batches, every index exactly once, none
// longer than the batch size.
func TestPartition(t *testing.T) {
	for _, tc := range []struct {
		n, size int
		batches int
	}{{8, 3, 3}, {8, 8, 1}, {8, 100, 1}, {1, 3, 1}, {0, 3, 0}} {
		got := partition(indices(tc.n), tc.size)
		if len(got) != tc.batches {
			t.Errorf("partition(%d, %d): %d batches, want %d", tc.n, tc.size, len(got), tc.batches)
		}
		next := 0
		for _, b := range got {
			if len(b) == 0 || len(b) > tc.size {
				t.Errorf("partition(%d, %d): batch size %d", tc.n, tc.size, len(b))
			}
			for _, i := range b {
				if i != next {
					t.Fatalf("partition(%d, %d): want contiguous index %d, got %d", tc.n, tc.size, next, i)
				}
				next++
			}
		}
		if next != tc.n {
			t.Errorf("partition(%d, %d): covered %d indices", tc.n, tc.size, next)
		}
	}
}

// TestExecRealGrid: the worker-side Exec evaluates a real (small)
// ALU-depth lease with the same keys and values the local reference
// evaluator produces.
func TestExecRealGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweep evaluation in -short mode")
	}
	ctx := context.Background()
	req := &Request{Version: Version, Kind: core.GridALUDepth, Tech: "organic", MaxStages: 3, Indices: []int{0, 1, 2}}
	res, err := Exec(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 || res.Version != Version {
		t.Fatalf("result = %+v", res)
	}
	g, err := core.SweepGrid(ctx, core.GridALUDepth, core.OrganicTech(), 3, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.EvalLocal(ctx, g, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Points {
		if p.Key != g.Key(p.Index) {
			t.Errorf("point %d key = %q, want %q", i, p.Key, g.Key(p.Index))
		}
		if string(p.Value) != string(want[i].Value) {
			t.Errorf("point %d value = %s, want %s", i, p.Value, want[i].Value)
		}
	}
}

// TestExecRejects: the worker-side request validation — empty batches,
// unknown technologies, out-of-range indices, and foreign config
// digests are all refused before any evaluation.
func TestExecRejects(t *testing.T) {
	ctx := context.Background()
	type rejectCase struct {
		name string
		req  *Request
		want error
	}
	cases := []rejectCase{
		{"empty batch", &Request{Kind: core.GridALUDepth}, ErrBadRequest},
		{"bad tech", &Request{Kind: core.GridALUDepth, Tech: "ether", Indices: []int{0}}, ErrBadRequest},
		{"config mismatch", &Request{Kind: core.GridALUDepth, MaxStages: 3, Indices: []int{0}, ConfigDigest: "sha256:bogus"}, ErrConfigMismatch},
	}
	if !testing.Short() {
		// These resolve a real technology (first use characterizes the
		// cell library), so they stay out of the -short path.
		cases = append(cases,
			rejectCase{"bad kind", &Request{Kind: "mystery", Indices: []int{0}}, ErrBadRequest},
			rejectCase{"index out of range", &Request{Kind: core.GridALUDepth, MaxStages: 3, Indices: []int{99}}, ErrBadRequest},
		)
	}
	for _, tc := range cases {
		if _, err := Exec(ctx, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestDigestTracksConfig: the lease-binding digest moves with the
// result-shaping knobs and ignores the execution-shaping ones.
func TestDigestTracksConfig(t *testing.T) {
	base := Digest(config.Config{})
	if base == "" {
		t.Fatal("empty digest")
	}
	if d := Digest(config.Config{Faults: "seed=1,rate=1"}); d == base {
		t.Error("fault spec did not move the digest")
	}
	if d := Digest(config.Config{PartialResults: true}); d == base {
		t.Error("partial-results posture did not move the digest")
	}
	if d := Digest(config.Config{Workers: 7, ShardBatch: 3, Peers: []string{"http://x"}}); d != base {
		t.Error("execution-shaping knobs moved the digest")
	}
}

// TestHTTPPeerEnvelope: the HTTP peer decodes success bodies, maps
// envelope config_mismatch codes onto ErrConfigMismatch, surfaces
// other envelopes as their message, and degrades to raw bodies.
func TestHTTPPeerEnvelope(t *testing.T) {
	var mode atomic.Value
	mode.Store("ok")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/shards/exec" {
			t.Errorf("peer hit %s %s", r.Method, r.URL.Path)
		}
		var req Request
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("undecodable lease: %v", err)
		}
		switch mode.Load() {
		case "mismatch":
			w.Header().Set("Content-Type", wire.ProblemContentType)
			w.WriteHeader(http.StatusConflict)
			b, _ := json.Marshal(wire.Error{Code: wire.CodeConfigMismatch, Message: "lease bound elsewhere"})
			w.Write(b)
		case "envelope":
			w.Header().Set("Content-Type", wire.ProblemContentType)
			w.WriteHeader(http.StatusBadRequest)
			b, _ := json.Marshal(wire.Error{Code: wire.CodeBadRequest, Message: "no such grid"})
			w.Write(b)
		case "raw":
			http.Error(w, "tilt", http.StatusInternalServerError)
		default:
			json.NewEncoder(w).Encode(answer(&req)) //nolint:errcheck
		}
	}))
	defer ts.Close()

	p := NewHTTPPeer(ts.URL+"/", nil) // trailing slash must normalize away
	req := &Request{Version: Version, Kind: "alu-depth", Indices: []int{0, 1}}

	res, err := p.Exec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(res.Points))
	}

	mode.Store("mismatch")
	if _, err := p.Exec(context.Background(), req); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("409 envelope: err = %v, want ErrConfigMismatch", err)
	}

	mode.Store("envelope")
	_, err = p.Exec(context.Background(), req)
	if err == nil || !errors.Is(err, ErrConfigMismatch) && err.Error() == "" {
		t.Fatalf("400 envelope: err = %v", err)
	}
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeBadRequest {
		t.Errorf("400 envelope did not surface as wire.Error: %v", err)
	}

	mode.Store("raw")
	if _, err := p.Exec(context.Background(), req); err == nil {
		t.Error("raw 500 body: want error")
	}
}
