package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/sta"
)

// aluRankBits is the register width per pipeline cut of the complex ALU
// (carry-save partial sums plus operand/control forwarding).
const aluRankBits = 128

var (
	aluNetOnce sync.Once
	aluNet     *logic.Netlist
	// aluMemo caches the analyzed ALU per technology/wire-mode key, so
	// the four Figure 15 series analyze concurrently.
	aluMemo runner.Memo[string, *sta.Result]
)

// aluResult analyzes (with caching) the 32-bit complex ALU for one
// technology and wire mode. The first requester's span (via ctx)
// becomes the parent of the shared analysis span.
func aluResult(ctx context.Context, t *Tech, wire bool) (*sta.Result, error) {
	key := t.Name
	if !wire {
		key += "-nowire"
	}
	return aluMemo.Do(key, func() (*sta.Result, error) {
		aluNetOnce.Do(func() { aluNet = logic.BuildComplexALU(dataWidth) })
		return sta.AnalyzeNetlistCtx(ctx, aluNet, t.Lib, t.Wire, sta.Options{UseWire: wire})
	})
}

// ALUDepthSweep reproduces Figure 12: pipeline the complex ALU
// (multiplier + stallable-divider datapath) from 1 to maxStages and
// report frequency and area at each depth. wire selects the wire-delay
// mode (off for the Figure 15 ablation) and feedbackK the feedback-wire
// constant (0 = the pipeline default; the causal-mechanism ablation
// knob). The ALU is analyzed once (cached) and each depth partitions
// independently on the worker pool, so the result is bit-identical to
// a serial loop. The whole sweep runs under one "sweep:aludepth" span.
// Each point is a fault-injection site ("alu-point:tech:wire:nK");
// under config.PartialResults a failed point is returned with its Err
// annotation instead of aborting the sweep.
func ALUDepthSweep(ctx context.Context, t *Tech, maxStages int, wire bool, feedbackK float64) ([]pipeline.Point, error) {
	ctx, sp := obs.Start(ctx, "sweep:aludepth", obs.KV("tech", t.Name),
		obs.Bool("wire", wire), obs.Int("max_stages", maxStages))
	defer sp.End()
	g, err := aluGrid(t, maxStages, wire, feedbackK)
	if err != nil {
		return nil, err
	}
	pts, errs, err := evaluate(ctx, g)
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != "" {
			pts[i] = pipeline.Point{Stages: i + 1, Err: e}
		}
	}
	return pts, nil
}

// aluGrid is the Figure 12 lattice: one point (and one checkpoint
// record) per depth 1..maxStages, so a resumed sweep replays journaled
// depths bit-identically. The shared ALU analysis is resolved lazily
// inside Eval, so building the grid costs nothing.
func aluGrid(t *Tech, maxStages int, wire bool, feedbackK float64) (*grid[pipeline.Point], error) {
	if maxStages <= 0 {
		return nil, fmt.Errorf("alu-depth grid: max_stages %d out of range", maxStages)
	}
	cfg := pipeline.Config{
		RankBits:  aluRankBits,
		Wire:      t.Wire,
		UseWire:   wire,
		FeedbackK: feedbackK,
	}
	point := func(ctx context.Context, i int) (pipeline.Point, error) {
		res, err := aluResult(ctx, t, wire)
		if err != nil {
			return pipeline.Point{}, err
		}
		ctx, sp := obs.Start(ctx, "alu-point", obs.Int("stages", i+1))
		defer sp.End()
		if err := fault.Inject(ctx, fmt.Sprintf("alu-point:%s:%s:n%d", t.Name, wireTag(wire), i+1)); err != nil {
			return pipeline.Point{}, err
		}
		return pipeline.PointAt(ctx, res, t.DFF(), cfg, i+1), nil
	}
	key := func(i int) string {
		return checkpoint.PointID("alu", t.Name, wireTag(wire),
			"k"+strconv.FormatFloat(feedbackK, 'g', -1, 64), "n"+strconv.Itoa(i+1))
	}
	return &grid[pipeline.Point]{N: maxStages, Eval: checkpointed(key, point)}, nil
}

// wireTag names the wire mode inside fault-site identities.
func wireTag(wire bool) string {
	if wire {
		return "wire"
	}
	return "nowire"
}

// ALUResult exposes the analyzed complex-ALU timing (for the
// partitioning ablation bench).
func ALUResult(t *Tech, wire bool) (*sta.Result, error) {
	return aluResult(context.Background(), t, wire)
}

// NormalizePoints scales frequency and area to the 1-stage entry.
// Failed partial-sweep points (zero numerics) normalize to 0 — never
// NaN/Inf, which would poison JSON encoding downstream.
func NormalizePoints(pts []pipeline.Point) (freq, area []float64) {
	freq = make([]float64, len(pts))
	area = make([]float64, len(pts))
	for i, p := range pts {
		freq[i] = ratio(p.Freq, pts[0].Freq)
		area[i] = ratio(p.Area, pts[0].Area)
	}
	return freq, area
}

// ratio divides defensively: a zero denominator (the base point failed
// under fault injection) or zero numerator yields 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
