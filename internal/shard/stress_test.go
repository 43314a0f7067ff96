package shard

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// chaosPeer misbehaves randomly: it fails outright, stalls past the
// lease timeout (exercising timeout + re-dispatch), dawdles past the
// hedge window (exercising hedges), or answers promptly. Decisions
// come from its own seeded source, so a failing run reproduces from
// the logged seed (BIODEG_STRESS_SEED).
type chaosPeer struct {
	name string
	mu   sync.Mutex
	rng  *rand.Rand
	// probabilities, cumulative: fail | stall | dawdle | answer.
	pFail, pStall, pDawdle float64
	stall, dawdle          time.Duration
}

func (p *chaosPeer) Name() string { return p.name }

func (p *chaosPeer) Exec(ctx context.Context, req *Request) (*Result, error) {
	p.mu.Lock()
	roll := p.rng.Float64()
	p.mu.Unlock()
	switch {
	case roll < p.pFail:
		return nil, errors.New("chaos: injected peer failure")
	case roll < p.pFail+p.pStall:
		// Stall past the lease timeout; honor cancellation so the
		// abandoned dispatch does not outlive the test.
		select {
		case <-time.After(p.stall):
			return nil, errors.New("chaos: stalled dispatch answered late")
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	case roll < p.pFail+p.pStall+p.pDawdle:
		select {
		case <-time.After(p.dawdle):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return answer(req), nil
}

// TestCoordinatorStressRace hammers one coordinator from many
// goroutines while its peers fail, stall past the lease timeout, and
// dawdle into the hedge window — the full concurrent failure surface
// (lease timeout + hedge + peer failure + breaker trips) under -race.
// One steady peer guarantees every lease eventually lands, so the test
// asserts hard determinism: every Evaluate returns exactly the serial
// reference evaluation. The seed is randomized and logged; rerun a
// failure with BIODEG_STRESS_SEED=<seed>.
func TestCoordinatorStressRace(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("BIODEG_STRESS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("BIODEG_STRESS_SEED: %v", err)
		}
		seed = v
	}
	t.Logf("seed=%d", seed)

	const (
		gridN        = 60
		callers      = 6
		rounds       = 3
		leaseTimeout = 60 * time.Millisecond
		hedgeAfter   = 5 * time.Millisecond
	)
	g := &core.Grid{
		Kind: "alu-depth", Tech: "organic", Wire: true, MaxStages: gridN, N: gridN,
		Key:  func(i int) string { return fmt.Sprintf("pt/%d", i) },
		Eval: func(ctx context.Context, i int) (any, error) { return i * i, nil },
	}
	want, err := core.EvalLocal(context.Background(), g, indices(gridN))
	if err != nil {
		t.Fatal(err)
	}

	peers := []Peer{
		&chaosPeer{name: "steady", rng: rand.New(rand.NewSource(seed))},
	}
	for i := 0; i < 3; i++ {
		peers = append(peers, &chaosPeer{
			name: fmt.Sprintf("chaos%d", i),
			rng:  rand.New(rand.NewSource(seed + int64(i) + 1)),
			// 40% fail, 20% stall past the lease timeout, 20% dawdle into
			// the hedge window, 20% answer promptly.
			pFail: 0.4, pStall: 0.2, pDawdle: 0.2,
			stall:  3 * leaseTimeout,
			dawdle: 4 * hedgeAfter,
		})
	}
	c := New(Options{
		Batch:            3,
		LeaseTimeout:     leaseTimeout,
		HedgeAfter:       hedgeAfter,
		MaxDispatches:    8,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
	}, peers...)

	var wg sync.WaitGroup
	errc := make(chan error, callers*rounds)
	for w := 0; w < callers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := c.Evaluate(context.Background(), g, indices(gridN))
				if err != nil {
					errc <- fmt.Errorf("caller %d round %d: %w", w, r, err)
					return
				}
				if len(got) != gridN {
					errc <- fmt.Errorf("caller %d round %d: %d points, want %d", w, r, len(got), gridN)
					return
				}
				for i := range want {
					if got[i].Index != want[i].Index || got[i].Err != want[i].Err ||
						string(got[i].Value) != string(want[i].Value) {
						errc <- fmt.Errorf("caller %d round %d: point %d diverged: got %+v want %+v",
							w, r, i, got[i], want[i])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Counter invariants over the whole storm.
	st := c.Status()
	t.Logf("leases=%d redispatches=%d hedges=%d hedges_won=%d",
		st.Leases, st.Redispatches, st.Hedges, st.HedgesWon)
	wantLeases := int64(callers * rounds * ((gridN + 2) / 3))
	if st.Leases != wantLeases {
		t.Errorf("terminal leases = %d, want %d", st.Leases, wantLeases)
	}
	if st.HedgesWon > st.Hedges {
		t.Errorf("hedges won (%d) exceeds hedges launched (%d)", st.HedgesWon, st.Hedges)
	}
	if st.Replayed != 0 {
		t.Errorf("replayed = %d without a checkpoint journal", st.Replayed)
	}
}
