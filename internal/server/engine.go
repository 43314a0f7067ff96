package server

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"repro/biodeg"
	"repro/biodeg/api"
	"repro/internal/checkpoint"
)

// Error classes the handlers map to HTTP statuses. Engine
// implementations wrap returned errors with one of these so the
// transport layer never string-matches.
var (
	// ErrBadRequest marks a request the engine cannot interpret
	// (unknown technology, malformed bounds) — HTTP 400.
	ErrBadRequest = errors.New("bad request")
	// ErrNotFound marks a reference to a missing resource (unknown
	// experiment ID, unknown benchmark) — HTTP 404.
	ErrNotFound = errors.New("not found")
	// errConfigMismatch marks a checkpoint journal written under
	// different result-shaping knobs (fault spec, partial mode) than
	// this daemon's — HTTP 409 with code config_mismatch. Not an engine
	// failure: the engine is healthy, the -checkpoint directory belongs
	// to another configuration.
	errConfigMismatch = checkpoint.ErrConfigMismatch
)

// Engine is the computation surface the server fronts. The production
// engine delegates to a biodeg.Session; tests substitute fakes so
// transport behavior (admission, coalescing, caching, streaming) is
// exercised without multi-second characterization sweeps.
type Engine interface {
	// Experiments lists the registry.
	Experiments() []api.ExperimentInfo
	// RunExperiment runs one experiment by ID under ctx.
	RunExperiment(ctx context.Context, id string) (*api.ExperimentResult, error)
	// Sweep runs the named design-space sweep (api.SweepALUDepth,
	// api.SweepCoreDepth, or api.SweepWidth).
	Sweep(ctx context.Context, kind string, req api.SweepRequest) (*api.SweepResult, error)
	// Simulate runs one benchmark through the cycle-level core model.
	Simulate(ctx context.Context, req api.SimulateRequest) (*api.SimulateResult, error)
}

// SessionEngine is the production Engine: every call threads through
// one shared biodeg.Session, so the daemon's configuration and tracer
// are fixed at construction.
type SessionEngine struct {
	Session *biodeg.Session
}

// NewSessionEngine wraps s (nil means an optionless session following
// the process default configuration).
func NewSessionEngine(s *biodeg.Session) *SessionEngine {
	if s == nil {
		s = biodeg.New()
	}
	return &SessionEngine{Session: s}
}

// Experiments implements Engine.
func (e *SessionEngine) Experiments() []api.ExperimentInfo {
	exps := biodeg.Experiments()
	out := make([]api.ExperimentInfo, len(exps))
	for i, x := range exps {
		out[i] = api.ExperimentInfo{ID: x.ID, Title: x.Title, Paper: x.Paper}
	}
	return out
}

// RunExperiment implements Engine.
func (e *SessionEngine) RunExperiment(ctx context.Context, id string) (*api.ExperimentResult, error) {
	results, err := e.Session.RunExperiments(ctx, id)
	if err != nil {
		if ctx.Err() == nil {
			// The session reports unknown IDs before running anything.
			return nil, fmt.Errorf("%w: %v", ErrNotFound, err)
		}
		return nil, err
	}
	out := api.FromExperimentResult(results[0])
	return &out, nil
}

// Sweep implements Engine.
func (e *SessionEngine) Sweep(ctx context.Context, kind string, req api.SweepRequest) (*api.SweepResult, error) {
	// Validate kind and bounds before resolving the technology:
	// resolution characterizes the cell library on first use, and a
	// malformed request must not pay (or trigger) that. Unset (<= 0)
	// bounds default to 12 ALU stages and core depths 9 to 15.
	maxStages, minDepth, maxDepth := req.MaxStages, req.MinDepth, req.MaxDepth
	if maxStages <= 0 {
		maxStages = 12
	}
	if minDepth <= 0 {
		minDepth = 9
	}
	if maxDepth <= 0 {
		maxDepth = 15
	}
	switch kind {
	case api.SweepALUDepth, api.SweepWidth:
	case api.SweepCoreDepth:
		if maxDepth < minDepth {
			return nil, fmt.Errorf("%w: max_depth %d < min_depth %d", ErrBadRequest, maxDepth, minDepth)
		}
	default:
		return nil, fmt.Errorf("%w: unknown sweep kind %q", ErrNotFound, kind)
	}

	tech, err := req.Technology()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	res := &api.SweepResult{Version: api.Version, Kind: kind, Tech: tech.Name}
	switch kind {
	case api.SweepALUDepth:
		pts, err := e.Session.ALUDepth(ctx, tech, maxStages)
		if err != nil {
			return nil, err
		}
		res.ALU = api.FromALUPoints(pts)
	case api.SweepCoreDepth:
		pts, err := e.Session.CoreDepth(ctx, tech, minDepth, maxDepth)
		if err != nil {
			return nil, err
		}
		res.Depth = api.FromDepthPoints(pts)
	case api.SweepWidth:
		pts, err := e.Session.Widths(ctx, tech)
		if err != nil {
			return nil, err
		}
		res.Width = api.FromWidthPoints(pts)
	}
	return res, nil
}

// Simulate implements Engine.
func (e *SessionEngine) Simulate(ctx context.Context, req api.SimulateRequest) (*api.SimulateResult, error) {
	if !slices.Contains(biodeg.Benchmarks(), req.Bench) {
		return nil, fmt.Errorf("%w: unknown benchmark %q (have %v)",
			ErrNotFound, req.Bench, biodeg.Benchmarks())
	}
	st, err := e.Session.SimulateIPC(ctx, req.Bench, req.Config.Core())
	if err != nil {
		return nil, err
	}
	return &api.SimulateResult{Version: api.Version, Bench: req.Bench, Stats: api.FromStats(st)}, nil
}

var _ Engine = (*SessionEngine)(nil)
