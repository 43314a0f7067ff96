package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/biodeg/api"
	"repro/internal/fault"
	"repro/internal/server/breaker"
)

// State-machine unit tests live with the extracted breaker package
// (internal/server/breaker); here we cover the server's classifier and
// the breaker's behavior through the full HTTP serving path.

// TestEngineBreakerIgnoresClientErrors checks the server's failure
// classifier: client mistakes, journal config mismatches, and client
// disconnects never move the engine breaker; engine-class errors
// (including timeouts) trip it.
func TestEngineBreakerIgnoresClientErrors(t *testing.T) {
	b := newEngineBreaker(2, time.Minute)
	for i := 0; i < 9; i++ {
		if err := b.Allow(); err != nil {
			t.Fatalf("Allow() = %v", err)
		}
		switch i % 3 {
		case 0:
			b.Done(fmt.Errorf("%w: nonsense", ErrBadRequest))
		case 1:
			b.Done(fmt.Errorf("%w: journal from elsewhere", errConfigMismatch))
		default:
			b.Done(context.Canceled)
		}
	}
	if st := b.Status(); st.State != "closed" || st.Trips != 0 {
		t.Fatalf("client errors moved the breaker: %+v", st)
	}
	// Deadline errors are engine-class and do trip.
	b.Done(context.DeadlineExceeded)
	b.Done(context.DeadlineExceeded)
	if st := b.Status(); st.State != "open" {
		t.Fatalf("timeouts did not trip: %+v", st)
	}
}

// flakyEngine is a fakeEngine whose sweeps fail while broken is set.
type flakyEngine struct {
	fakeEngine
	broken atomic.Bool
}

func (f *flakyEngine) Sweep(ctx context.Context, kind string, req api.SweepRequest) (*api.SweepResult, error) {
	if f.broken.Load() {
		f.sweeps.Add(1)
		return nil, errors.New("engine exploded")
	}
	return f.fakeEngine.Sweep(ctx, kind, req)
}

// TestBreakerHTTP drives the breaker through the full serving path:
// consecutive engine failures turn 500s into fast 503s with
// Retry-After, and after the cooldown a healthy engine closes it again.
func TestBreakerHTTP(t *testing.T) {
	eng := &flakyEngine{}
	eng.broken.Store(true)
	_, ts := newTestServer(t, eng, Options{
		BreakerThreshold: 2,
		BreakerCooldown:  60 * time.Millisecond,
	})
	url := ts.URL + "/v1/sweeps/alu-depth"

	// Two engine failures (distinct bodies so neither cache nor
	// singleflight interferes) trip the breaker.
	for i := 1; i <= 2; i++ {
		resp := post(t, url, fmt.Sprintf(`{"tech":"organic","max_stages":%d}`, i))
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("failure %d: status %d, want 500", i, resp.StatusCode)
		}
		slurp(t, resp)
	}

	// Open: fast-fail without touching the engine.
	before := eng.sweeps.Load()
	resp := post(t, url, `{"tech":"organic","max_stages":3}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("open breaker: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	slurp(t, resp)
	if eng.sweeps.Load() != before {
		t.Error("open breaker still reached the engine")
	}

	// Heal the engine, wait out the cooldown: the probe succeeds and the
	// breaker closes.
	eng.broken.Store(false)
	time.Sleep(80 * time.Millisecond)
	resp = post(t, url, `{"tech":"organic","max_stages":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-cooldown probe: status %d, want 200", resp.StatusCode)
	}
	slurp(t, resp)

	var faultz struct {
		Breaker  breaker.Status   `json:"breaker"`
		Observed map[string]int64 `json:"observed"`
	}
	resp, err := http.Get(ts.URL + "/v1/faultz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(slurp(t, resp)), &faultz); err != nil {
		t.Fatal(err)
	}
	if faultz.Breaker.State != "closed" || faultz.Breaker.Trips != 1 {
		t.Errorf("faultz breaker = %+v, want closed with 1 trip", faultz.Breaker)
	}
	if faultz.Observed["engine_errors"] != 2 {
		t.Errorf("observed engine_errors = %d, want 2", faultz.Observed["engine_errors"])
	}
}

// TestFaultzWithInjector checks route-level injection: a rate-1 error
// injector on server sites fails the leader path, counts in /v1/faultz,
// and feeds the breaker.
func TestFaultzWithInjector(t *testing.T) {
	spec, err := fault.Parse("seed=1,rate=1,kinds=error,stages=server")
	if err != nil {
		t.Fatal(err)
	}
	inj := fault.New(spec)
	_, ts := newTestServer(t, &fakeEngine{}, Options{Injector: inj})

	resp := post(t, ts.URL+"/v1/sweeps/width", `{"tech":"organic"}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("injected request: status %d, want 500", resp.StatusCode)
	}
	slurp(t, resp)

	var faultz struct {
		Injected fault.Counters   `json:"injected"`
		Observed map[string]int64 `json:"observed"`
	}
	resp, err = http.Get(ts.URL + "/v1/faultz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(slurp(t, resp)), &faultz); err != nil {
		t.Fatal(err)
	}
	if faultz.Injected.Error != 1 || faultz.Injected.Total != 1 {
		t.Errorf("injected counters = %+v, want one error", faultz.Injected)
	}
	if len(faultz.Injected.Stages) != 1 || faultz.Injected.Stages[0].Stage != "server" {
		t.Errorf("injected stages = %+v, want [server]", faultz.Injected.Stages)
	}
	if faultz.Observed["engine_errors"] != 1 {
		t.Errorf("observed engine_errors = %d, want 1", faultz.Observed["engine_errors"])
	}
}
