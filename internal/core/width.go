package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/checkpoint"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
)

// Width ranges of the Figures 13-14 experiment.
const (
	MinFront = 1
	MaxFront = 6
	MinBack  = 3
	MaxBack  = 7
)

// WidthPoint is one (front-end, back-end) configuration.
type WidthPoint struct {
	Front, Back int
	Period      float64
	Freq        float64
	Area        float64
	MeanIPC     float64
	Perf        float64 // MeanIPC x Freq
	// Err annotates a configuration that failed under a partial-results
	// sweep ("" = computed); its numeric fields are then zero.
	Err string
}

// WidthSweep synthesizes the thirty width configurations of the paper
// (front-end width 1-6 x back-end pipes 3-7) at the 9-stage baseline
// depth and reports period, area, and benchmark-averaged performance.
// Every (front, back) configuration is independent: with eval nil the
// whole grid fans out over the worker pool (shared stage analyses and
// benchmark simulations are deduplicated by the per-key memo caches),
// otherwise eval (the shard coordinator) computes it. Results come back
// in the serial sweep's (back-major) order.
func WidthSweep(ctx context.Context, t *Tech, eval Evaluator) ([]WidthPoint, error) {
	ctx, sweepSpan := obs.Start(ctx, "sweep:width", obs.KV("tech", t.Name), obs.Bool("sharded", eval != nil))
	defer sweepSpan.End()
	pts, errs, err := evaluate[WidthPoint](ctx, widthGrid(t), eval)
	if err != nil {
		return nil, err
	}
	for i, e := range errs {
		if e != "" {
			fe, be := widthAt(i)
			pts[i] = WidthPoint{Front: fe, Back: be, Err: e}
		}
	}
	return pts, nil
}

// widthGrid is the Figures 13-14 lattice: one point (and one checkpoint
// record) per (front, back) configuration, enumerated in the serial
// sweep's back-major order.
func widthGrid(t *Tech) *Grid {
	point := func(ctx context.Context, i int) (WidthPoint, error) {
		fe, be := widthAt(i)
		ctx, sp := obs.Start(ctx, "width-point", obs.Int("fe", fe), obs.Int("be", be))
		defer sp.End()
		if err := fault.Inject(ctx, fmt.Sprintf("width-point:%s:fe%d:be%d", t.Name, fe, be)); err != nil {
			return WidthPoint{}, err
		}
		blocks, err := coreBlocks(ctx, t, fe, be, true)
		if err != nil {
			return WidthPoint{}, err
		}
		period, tp := pipeline.CoreTiming(ctx, blocks, t.DFF(), pipeline.Config{Wire: t.Wire, UseWire: true})
		mean, err := MeanIPCCtx(ctx, uarchConfig(fe, be, nil))
		if err != nil {
			return WidthPoint{}, err
		}
		return WidthPoint{
			Front:   fe,
			Back:    be,
			Period:  period,
			Freq:    tp.Freq,
			Area:    tp.Area,
			MeanIPC: mean,
			Perf:    mean * tp.Freq,
		}, nil
	}
	key := func(i int) string {
		fe, be := widthAt(i)
		return checkpoint.PointID("width", t.Name,
			"fe"+strconv.Itoa(fe), "be"+strconv.Itoa(be))
	}
	return &Grid{
		Kind: GridWidth, Tech: t.Name, Wire: true, N: widthN,
		Key: key, Eval: checkpointed(key, point),
	}
}

// Matrix arranges a width sweep into the paper's M[back][front] layout,
// normalized so the maximum entry is 1 (select Perf or Area via area).
func Matrix(pts []WidthPoint, area bool) [][]float64 {
	rows := MaxBack - MinBack + 1
	cols := MaxFront - MinFront + 1
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	max := 0.0
	for _, p := range pts {
		v := p.Perf
		if area {
			v = p.Area
		}
		m[p.Back-MinBack][p.Front-MinFront] = v
		if v > max {
			max = v
		}
	}
	if max > 0 {
		for i := range m {
			for j := range m[i] {
				m[i][j] /= max
			}
		}
	}
	return m
}

// Optimal returns the (front, back) of the best-performing point.
func Optimal(pts []WidthPoint) (fe, be int) {
	best := -1.0
	for _, p := range pts {
		if p.Perf > best {
			best, fe, be = p.Perf, p.Front, p.Back
		}
	}
	return fe, be
}

// StageDelay pairs a stage name with its per-stage delay.
type StageDelay struct {
	Name  string
	Delay float64
}

// StageDelays reports each baseline stage's combinational delay for
// diagnostics and the ablation benches.
func StageDelays(t *Tech, fe, be int, wire bool) ([]StageDelay, error) {
	blocks, err := coreBlocks(context.Background(), t, fe, be, wire)
	if err != nil {
		return nil, err
	}
	out := make([]StageDelay, len(blocks))
	for i, b := range blocks {
		out[i] = StageDelay{Name: b.Name, Delay: b.Delay()}
	}
	return out, nil
}

// MeanIPCAt is MeanIPC at the baseline depth for a width pair.
func MeanIPCAt(fe, be int) (float64, error) {
	return MeanIPC(uarchConfig(fe, be, nil))
}
