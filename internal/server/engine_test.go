package server

import (
	"context"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/biodeg"
	"repro/biodeg/api"
	"repro/internal/config"
)

// The SessionEngine tests stick to paths that avoid technology
// characterization (registry listing, validation, the pure cycle-level
// simulator, a one-stage sweep over a reference library), keeping the
// package's test time in milliseconds.

func TestSessionEngineExperiments(t *testing.T) {
	eng := NewSessionEngine(nil)
	exps := eng.Experiments()
	if len(exps) == 0 {
		t.Fatal("empty experiment registry")
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if e.ID == "" || e.Title == "" {
			t.Errorf("incomplete entry %+v", e)
		}
		ids[e.ID] = true
	}
	if !ids["fig3"] {
		t.Errorf("registry missing fig3: %v", ids)
	}
}

func TestSessionEngineErrors(t *testing.T) {
	eng := NewSessionEngine(nil)
	ctx := context.Background()

	if _, err := eng.RunExperiment(ctx, "nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown experiment error = %v, want ErrNotFound", err)
	}
	if _, err := eng.Sweep(ctx, api.SweepALUDepth, api.SweepRequest{Tech: "gallium"}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("unknown tech error = %v, want ErrBadRequest", err)
	}
	if _, err := eng.Sweep(ctx, api.SweepCoreDepth, api.SweepRequest{MinDepth: 12, MaxDepth: 10}); !errors.Is(err, ErrBadRequest) {
		t.Errorf("inverted bounds error = %v, want ErrBadRequest", err)
	}
	if _, err := eng.Simulate(ctx, api.SimulateRequest{Bench: "nope"}); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown benchmark error = %v, want ErrNotFound", err)
	}

	// The library name a sweep result reports ("silicon45") is not a bad
	// request: a response's tech posts back. A copy of the committed
	// reference library stands in for characterization.
	useReferenceLibrary(t, "silicon45")
	res, err := eng.Sweep(ctx, api.SweepALUDepth, api.SweepRequest{Tech: "silicon", MaxStages: 1})
	if err != nil {
		t.Fatal(err)
	}
	back, err := eng.Sweep(ctx, api.SweepALUDepth, api.SweepRequest{Tech: res.Tech, MaxStages: 1})
	if err != nil {
		t.Fatalf("posting back tech %q: %v", res.Tech, err)
	}
	if back.Tech != res.Tech {
		t.Errorf("round-tripped tech = %q, want %q", back.Tech, res.Tech)
	}
}

// useReferenceLibrary points the process default library cache at a
// temporary copy of the named committed reference library, so the
// technology loads instead of characterizing.
func useReferenceLibrary(t *testing.T, name string) {
	t.Helper()
	lib, err := os.ReadFile(filepath.Join("..", "cells", "testdata", name+".lib"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name+".lib"), lib, 0o644); err != nil {
		t.Fatal(err)
	}
	old := config.Default()
	t.Cleanup(func() { config.SetDefault(old) })
	config.SetDefault(config.Config{LibCache: dir})
}

func TestSessionEngineSimulate(t *testing.T) {
	eng := NewSessionEngine(nil)
	res, err := eng.Simulate(context.Background(), api.SimulateRequest{Bench: "dhrystone"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Version != api.Version || res.Bench != "dhrystone" {
		t.Errorf("result envelope = %+v", res)
	}
	if res.Stats.IPC <= 0 || res.Stats.IPC > 1 {
		t.Errorf("scalar-core IPC = %v, want (0, 1]", res.Stats.IPC)
	}
}

// TestSessionEngineJournalMismatch restarts a daemon's engine over the
// same checkpoint directory with a different fault spec: the journal
// refuses the new knobs, and the transport answers 409 config_mismatch
// without counting an engine failure (the breaker stays untouched).
func TestSessionEngineJournalMismatch(t *testing.T) {
	dir := t.TempDir()
	req := api.SimulateRequest{Bench: "dhrystone"}

	first := biodeg.New(biodeg.WithCheckpoint(dir))
	if _, err := NewSessionEngine(first).Simulate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	spec, err := biodeg.ParseFaults("seed=1,rate=0.5,kinds=error")
	if err != nil {
		t.Fatal(err)
	}
	restarted := biodeg.New(biodeg.WithCheckpoint(dir), biodeg.WithFaults(spec))
	defer restarted.Close()
	eng := NewSessionEngine(restarted)
	_, err = eng.Simulate(context.Background(), req)
	if !errors.Is(err, errConfigMismatch) {
		t.Fatalf("Simulate over a mismatched journal = %v, want errConfigMismatch", err)
	}
	if got := errStatus(err); got != http.StatusConflict {
		t.Errorf("errStatus = %d, want 409", got)
	}
	if isEngineFailure(err) {
		t.Error("a journal config mismatch counted as an engine failure")
	}

	s, ts := newTestServer(t, eng, Options{})
	resp := post(t, ts.URL+"/v1/simulate", `{"bench":"dhrystone"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("POST /v1/simulate: status %d, want 409 (%s)", resp.StatusCode, slurp(t, resp))
	}
	if e := parseEnvelope(t, resp); e.Code != api.CodeConfigMismatch {
		t.Errorf("code %q, want %q", e.Code, api.CodeConfigMismatch)
	}
	if n := s.engineErrs.Load(); n != 0 {
		t.Errorf("engine errors = %d after a journal mismatch, want 0", n)
	}
}
