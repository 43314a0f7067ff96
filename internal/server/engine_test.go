package server

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

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
