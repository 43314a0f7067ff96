package shard

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/server/breaker"
)

// Coordinator defaults.
const (
	// DefaultBatch is the points-per-lease batch size.
	DefaultBatch = 8
	// DefaultLeaseTimeout bounds one dispatch of a lease; expiry
	// re-dispatches the lease to another peer.
	DefaultLeaseTimeout = 5 * time.Minute
	// DefaultHedgeAfter is the straggler window: a lease unanswered for
	// this long gets a duplicate dispatch on a second peer.
	DefaultHedgeAfter = 30 * time.Second
	// DefaultMaxDispatches caps dispatch attempts per lease (first try
	// plus re-dispatches).
	DefaultMaxDispatches = 4
	// Per-peer breaker posture: trip fast (remote workers fail
	// coarsely), recover on a probe after a short cooldown.
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 10 * time.Second
)

// Options tunes a Coordinator. The zero value means all defaults;
// HedgeAfter < 0 disables hedging.
type Options struct {
	// Batch is the points-per-lease batch size (<= 0 = DefaultBatch).
	Batch int
	// LeaseTimeout bounds one dispatch (<= 0 = DefaultLeaseTimeout).
	LeaseTimeout time.Duration
	// HedgeAfter is the straggler window before a duplicate dispatch
	// (0 = DefaultHedgeAfter, negative = no hedging).
	HedgeAfter time.Duration
	// MaxDispatches caps attempts per lease (<= 0 = DefaultMaxDispatches).
	MaxDispatches int
	// Per-peer circuit breaker posture (<= 0 = package defaults).
	BreakerThreshold int
	BreakerCooldown  time.Duration
}

func (o Options) withDefaults() Options {
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = DefaultLeaseTimeout
	}
	if o.HedgeAfter == 0 {
		o.HedgeAfter = DefaultHedgeAfter
	}
	if o.MaxDispatches <= 0 {
		o.MaxDispatches = DefaultMaxDispatches
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = DefaultBreakerThreshold
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = DefaultBreakerCooldown
	}
	return o
}

// peerState pairs a peer with its circuit breaker.
type peerState struct {
	peer Peer
	brk  *breaker.Breaker
}

// Coordinator partitions sweep grids into point-leases and dispatches
// them across worker peers, re-dispatching on lease timeout or peer
// failure and hedging stragglers. Its Evaluate method is a
// core.Evaluator, so the sweep entries merge coordinator output
// byte-identically to an in-process run. Safe for concurrent use.
type Coordinator struct {
	opts  Options
	peers []*peerState
	// next drives the round-robin peer pick.
	next atomic.Uint64

	stats Stats
}

// Stats counts coordinator activity (monotonic; also exported as
// biodeg_shard_* telemetry).
type Stats struct {
	// Leases is terminal lease outcomes of any kind.
	Leases atomic.Int64
	// Replayed is leases satisfied from the checkpoint journal without
	// dispatching.
	Replayed atomic.Int64
	// Redispatches is dispatch attempts beyond each lease's first.
	Redispatches atomic.Int64
	// Hedges is duplicate dispatches launched; HedgesWon is how many
	// answered before the primary.
	Hedges, HedgesWon atomic.Int64
}

// New builds a coordinator over the given peers. Callers normally put
// Local{} first so the process's own worker pool shares the load and a
// sweep completes even with every remote peer down.
func New(opts Options, peers ...Peer) *Coordinator {
	c := &Coordinator{opts: opts.withDefaults()}
	for _, p := range peers {
		p := p
		name := p.Name()
		gauge := peerStateGauge.With(name)
		c.peers = append(c.peers, &peerState{
			peer: p,
			brk: breaker.New(breaker.Options{
				Threshold: c.opts.BreakerThreshold,
				Cooldown:  c.opts.BreakerCooldown,
				IsFailure: isPeerFailure,
				OnState:   func(s breaker.State) { gauge.Set(int64(s)) },
			}),
		})
	}
	return c
}

// isPeerFailure classifies peer errors for the breaker: config
// mismatches are a coordinator-side condition (the peer is healthy)
// and cancellation is the caller's doing.
func isPeerFailure(err error) bool {
	return err != nil && !errors.Is(err, ErrConfigMismatch) && !errors.Is(err, context.Canceled)
}

// Peers returns the peer names in dispatch order.
func (c *Coordinator) Peers() []string {
	out := make([]string, len(c.peers))
	for i, ps := range c.peers {
		out[i] = ps.peer.Name()
	}
	return out
}

// Evaluate implements core.Evaluator: it partitions the indices into
// contiguous leases of the configured batch size, runs them
// concurrently on the worker pool (each lease journaled through the
// context's checkpoint, so a killed coordinator resumes), and flattens
// the per-lease results.
func (c *Coordinator) Evaluate(ctx context.Context, g *core.Grid, indices []int) ([]core.PointValue, error) {
	if len(c.peers) == 0 {
		return nil, errors.New("shard: coordinator has no peers")
	}
	if !g.Wire || g.FeedbackK != 0 {
		// A Request cannot name these grids: workers would evaluate the
		// wire-on, default-constant grid, and its journaled leases
		// would replay under this grid's lease keys.
		return nil, fmt.Errorf("shard: %s grid with wire=%t feedback_k=%g cannot be leased", g.Kind, g.Wire, g.FeedbackK)
	}
	ctx, sp := obs.Start(ctx, "shard.coordinate",
		obs.KV("kind", g.Kind), obs.KV("tech", g.Tech),
		obs.Int("points", len(indices)), obs.Int("peers", len(c.peers)))
	defer sp.End()
	batches := partition(indices, c.opts.Batch)
	parts, err := runner.Map(ctx, len(batches), func(ctx context.Context, i int) ([]core.PointValue, error) {
		return c.leaseCheckpointed(ctx, g, batches[i])
	})
	if err != nil {
		return nil, err
	}
	var out []core.PointValue
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// partition splits indices into contiguous batches of at most size.
func partition(indices []int, size int) [][]int {
	var out [][]int
	for len(indices) > size {
		out = append(out, indices[:size])
		indices = indices[size:]
	}
	if len(indices) > 0 {
		out = append(out, indices)
	}
	return out
}

// leaseCheckpointed runs one lease through the context's checkpoint
// journal: a journaled lease replays its points without dispatching
// (that is what lets a killed coordinator resume mid-sweep), a fresh
// one dispatches and commits on success.
func (c *Coordinator) leaseCheckpointed(ctx context.Context, g *core.Grid, idxs []int) ([]core.PointValue, error) {
	dispatched := false
	vals, err := runner.Checkpointed(ctx, leaseKey(g, idxs), func(ctx context.Context) ([]core.PointValue, error) {
		dispatched = true
		return c.lease(ctx, g, idxs)
	})
	if err == nil && !dispatched {
		c.stats.Leases.Add(1)
		c.stats.Replayed.Add(1)
		leasesTotal.With("replayed").Inc()
	}
	return vals, err
}

// leaseKey names a lease's checkpoint record. The grid identity and
// the exact index range pin it, so changing bounds or batch size
// invalidates cleanly (different keys) rather than replaying stale
// partitions.
func leaseKey(g *core.Grid, idxs []int) string {
	return checkpoint.PointID("lease", g.Kind, g.Tech,
		fmt.Sprintf("s%d_d%d-%d", g.MaxStages, g.MinDepth, g.MaxDepth),
		fmt.Sprintf("i%d-%d", idxs[0], idxs[len(idxs)-1]),
		fmt.Sprintf("n%d", len(idxs)))
}

// lease dispatches one batch until it succeeds or the dispatch budget
// runs out, re-dispatching (with deterministic backoff) after lease
// timeouts and peer failures.
func (c *Coordinator) lease(ctx context.Context, g *core.Grid, idxs []int) ([]core.PointValue, error) {
	leasesInflight.Inc()
	defer leasesInflight.Dec()
	defer c.stats.Leases.Add(1)
	req := &Request{
		Version: Version, Kind: g.Kind, Tech: g.Tech,
		MaxStages: g.MaxStages, MinDepth: g.MinDepth, MaxDepth: g.MaxDepth,
		Indices:      idxs,
		ConfigDigest: Digest(config.Get(ctx)),
	}
	key := leaseKey(g, idxs)
	var lastErr error
	for attempt := 0; attempt < c.opts.MaxDispatches; attempt++ {
		if err := ctx.Err(); err != nil {
			leasesTotal.With("aborted").Inc()
			return nil, err
		}
		if attempt > 0 {
			c.stats.Redispatches.Add(1)
			redispatches.Inc()
			select {
			case <-time.After(runner.Backoff(0, attempt, key)):
			case <-ctx.Done():
				leasesTotal.With("aborted").Inc()
				return nil, ctx.Err()
			}
		}
		res, err := c.dispatch(ctx, req)
		if err == nil {
			vals, err := leaseValues(g, idxs, res)
			if err != nil {
				lastErr = err
				continue
			}
			leasesTotal.With("ok").Inc()
			return vals, nil
		}
		if errors.Is(err, ErrConfigMismatch) || ctx.Err() != nil {
			leasesTotal.With("aborted").Inc()
			return nil, err
		}
		lastErr = err
	}
	leasesTotal.With("failed").Inc()
	return nil, fmt.Errorf("lease %s: %d dispatches failed, last: %w", key, c.opts.MaxDispatches, lastErr)
}

// leaseValues validates a worker result against the lease: every
// leased index answered exactly once, no extras, each under the key
// this grid gives it (a worker that built a different grid — another
// technology, wire mode or bounds — must not be merged).
func leaseValues(g *core.Grid, idxs []int, res *Result) ([]core.PointValue, error) {
	if len(res.Points) != len(idxs) {
		return nil, fmt.Errorf("worker %s returned %d points for a %d-point lease", res.Worker, len(res.Points), len(idxs))
	}
	want := make(map[int]bool, len(idxs))
	for _, i := range idxs {
		want[i] = true
	}
	vals := make([]core.PointValue, len(res.Points))
	for i, p := range res.Points {
		if !want[p.Index] {
			return nil, fmt.Errorf("worker %s returned unleased or duplicate index %d", res.Worker, p.Index)
		}
		delete(want, p.Index)
		if k := g.Key(p.Index); p.Key != k {
			return nil, fmt.Errorf("worker %s returned key %q for index %d, want %q", res.Worker, p.Key, p.Index, k)
		}
		if p.Err == "" && len(p.Value) == 0 {
			return nil, fmt.Errorf("worker %s returned empty value for index %d (%s)", res.Worker, p.Index, g.Key(p.Index))
		}
		vals[i] = core.PointValue{Index: p.Index, Value: p.Value, Err: p.Err}
	}
	return vals, nil
}

// dispatch runs one attempt of a lease under the lease timeout: a
// primary peer, plus (after the hedge window) one duplicate on a
// second peer — first success wins, the loser's work is discarded when
// the deadline cancels it.
func (c *Coordinator) dispatch(ctx context.Context, req *Request) (*Result, error) {
	dctx, cancel := context.WithTimeout(ctx, c.opts.LeaseTimeout)
	defer cancel()
	type answer struct {
		res    *Result
		err    error
		hedged bool
	}
	primary := c.pick(nil)
	// Buffered so an answer arriving after we return never blocks its
	// goroutine.
	ch := make(chan answer, 2)
	go func() {
		res, err := c.execOn(dctx, primary, req)
		ch <- answer{res, err, false}
	}()
	outstanding := 1
	var hedge <-chan time.Time
	if c.opts.HedgeAfter > 0 && len(c.peers) > 1 {
		t := time.NewTimer(c.opts.HedgeAfter)
		defer t.Stop()
		hedge = t.C
	}
	var firstErr error
	for {
		select {
		case a := <-ch:
			outstanding--
			if a.err == nil {
				if a.hedged {
					c.stats.HedgesWon.Add(1)
					hedgesWon.Inc()
				}
				return a.res, nil
			}
			if errors.Is(a.err, ErrConfigMismatch) {
				return nil, a.err
			}
			if firstErr == nil {
				firstErr = a.err
			}
			if outstanding == 0 {
				return nil, firstErr
			}
		case <-hedge:
			hedge = nil
			second := c.pick(primary)
			if second == nil {
				continue
			}
			c.stats.Hedges.Add(1)
			hedges.Inc()
			outstanding++
			go func() {
				res, err := c.execOn(dctx, second, req)
				ch <- answer{res, err, true}
			}()
		case <-dctx.Done():
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("lease timed out after %s on peer %s", c.opts.LeaseTimeout, primary.peer.Name())
		}
	}
}

// execOn runs one lease on one peer through its breaker, feeding the
// per-peer latency histogram.
func (c *Coordinator) execOn(ctx context.Context, ps *peerState, req *Request) (*Result, error) {
	name := ps.peer.Name()
	if err := ps.brk.Allow(); err != nil {
		return nil, fmt.Errorf("peer %s: %w", name, err)
	}
	start := time.Now()
	res, err := ps.peer.Exec(ctx, req)
	ps.brk.Done(err)
	peerLatency.With(name).Observe(time.Since(start).Seconds())
	return res, err
}

// pick selects the next peer round-robin, skipping exclude and peers
// whose breaker is open; when every candidate is open it falls back to
// the first non-excluded peer (the breaker's half-open probe decides
// from there). Returns nil only when no peer but exclude exists.
func (c *Coordinator) pick(exclude *peerState) *peerState {
	n := len(c.peers)
	start := int(c.next.Add(1)-1) % n
	var fallback *peerState
	for k := 0; k < n; k++ {
		ps := c.peers[(start+k)%n]
		if ps == exclude {
			continue
		}
		if fallback == nil {
			fallback = ps
		}
		if ps.brk.State() != breaker.Open {
			return ps
		}
	}
	return fallback
}

// PeerStatus is one peer's health in a Status report.
type PeerStatus struct {
	Name    string         `json:"name"`
	Breaker breaker.Status `json:"breaker"`
}

// Status is the coordinator's introspection document (GET /v1/shardz).
type Status struct {
	Enabled       bool         `json:"enabled"`
	BatchSize     int          `json:"batch_size"`
	LeaseTimeoutS float64      `json:"lease_timeout_s"`
	HedgeAfterS   float64      `json:"hedge_after_s"`
	Leases        int64        `json:"leases"`
	Replayed      int64        `json:"replayed"`
	Redispatches  int64        `json:"redispatches"`
	Hedges        int64        `json:"hedges"`
	HedgesWon     int64        `json:"hedges_won"`
	Peers         []PeerStatus `json:"peers"`
}

// Status reports the coordinator's configuration, lease counters, and
// per-peer breaker state. Nil-safe: a nil coordinator reports
// Enabled=false (the daemon is not coordinating).
func (c *Coordinator) Status() Status {
	if c == nil {
		return Status{}
	}
	st := Status{
		Enabled:       true,
		BatchSize:     c.opts.Batch,
		LeaseTimeoutS: c.opts.LeaseTimeout.Seconds(),
		HedgeAfterS:   c.opts.HedgeAfter.Seconds(),
		Leases:        c.stats.Leases.Load(),
		Replayed:      c.stats.Replayed.Load(),
		Redispatches:  c.stats.Redispatches.Load(),
		Hedges:        c.stats.Hedges.Load(),
		HedgesWon:     c.stats.HedgesWon.Load(),
	}
	if st.HedgeAfterS < 0 {
		st.HedgeAfterS = 0
	}
	for _, ps := range c.peers {
		st.Peers = append(st.Peers, PeerStatus{Name: ps.peer.Name(), Breaker: ps.brk.Status()})
	}
	return st
}
