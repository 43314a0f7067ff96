package core

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/config"
	"repro/internal/runner"
)

// Grid kinds, matching both the /v1/sweeps/{kind} URL segment and the
// shard wire protocol (biodeg/api re-exports the same literals).
const (
	GridALUDepth  = "alu-depth"
	GridCoreDepth = "core-depth"
	GridWidth     = "width"
)

// TechByName resolves a technology by its wire name ("" means organic,
// matching the sweep-request default). The cell library's canonical
// name ("silicon45") is accepted too: grids carry Tech = t.Name, and a
// shard coordinator forwards that field verbatim in its leases, so the
// worker-side resolver must round-trip it.
func TechByName(name string) (*Tech, error) {
	switch name {
	case "organic", "":
		return OrganicTech(), nil
	case "silicon", "silicon45":
		return SiliconTech(), nil
	}
	return nil, fmt.Errorf("unknown technology %q (want organic or silicon)", name)
}

// Grid is one design-space sweep viewed as a flat point lattice: N
// points, each with a stable checkpoint key (Key) and an evaluator
// (Eval). The enumeration order and keys are the single source of
// truth shared by the in-process pass, the shard worker (which
// evaluates index subsets), and the coordinator (which merges them
// back) — that sharing is what makes a sharded sweep byte-identical to
// a local one.
type Grid struct {
	Kind string
	// Tech is the technology's wire name.
	Tech string
	// Wire is the wire-delay mode and FeedbackK the ALU feedback-wire
	// constant (0 = the pipeline default). The shard protocol carries
	// neither: SweepGrid builds Wire = true, FeedbackK = 0 grids, the
	// only ones a coordinator can lease.
	Wire      bool
	FeedbackK float64
	// Bounds, normalized; only the ones the kind reads are meaningful.
	MaxStages          int
	MinDepth, MaxDepth int
	// N is the point count; valid indices are 0..N-1.
	N int
	// Key names point i for checkpointing; in-process and worker-side
	// evaluations share it, so journals replay across execution styles.
	Key func(i int) string
	// Eval computes point i under the context's checkpoint (a journaled
	// key replays without computing). The concrete value type depends
	// on Kind (pipeline.Point, uarch.Stats, or WidthPoint).
	Eval func(ctx context.Context, i int) (any, error)
	// skeleton is a core-depth grid's serial cut-placement walk, run
	// once and shared by Eval and the sweep assembly.
	skeleton func(ctx context.Context) ([]DepthPoint, error)
}

// SweepGrid builds the point lattice for one sweep kind over t, with
// wire delay on and the default ALU feedback constant — the grids the
// shard protocol names. Bounds of kinds that do not read them are
// ignored. Building a grid is cheap — expensive prep (netlist analysis,
// the serial cut-placement walk) is deferred into the first Eval call,
// so a coordinator that only needs keys never pays it.
func SweepGrid(ctx context.Context, kind string, t *Tech, maxStages, minDepth, maxDepth int) (*Grid, error) {
	switch kind {
	case GridALUDepth:
		return aluGrid(t, maxStages, true, 0)
	case GridCoreDepth:
		return depthGrid(t, minDepth, maxDepth, true)
	case GridWidth:
		return widthGrid(t), nil
	}
	return nil, fmt.Errorf("unknown sweep kind %q", kind)
}

// NormalizeBounds applies the sweep-request defaults to unset (<= 0)
// bounds: 12 ALU stages, core depths 9 to 15. The HTTP sweep handler
// and the shard worker both normalize through it, so a coordinator and
// its workers build the same grid whichever bounds a request spells
// out.
func NormalizeBounds(maxStages, minDepth, maxDepth int) (int, int, int) {
	if maxStages <= 0 {
		maxStages = 12
	}
	if minDepth <= 0 {
		minDepth = 9
	}
	if maxDepth <= 0 {
		maxDepth = 15
	}
	return maxStages, minDepth, maxDepth
}

// checkpointed adapts a kind's typed point function to Grid.Eval: each
// point runs under runner.Checkpointed with its own key and the kind's
// concrete type, so a journal replay decodes into T (replaying through
// `any` would decode into a map and re-encode differently).
func checkpointed[T any](key func(int) string, point func(context.Context, int) (T, error)) func(context.Context, int) (any, error) {
	return func(ctx context.Context, i int) (any, error) {
		return runner.Checkpointed(ctx, key(i), func(ctx context.Context) (T, error) { return point(ctx, i) })
	}
}

// PointValue is one evaluated grid point in wire form: the point's
// JSON value, or its error annotation under a partial-results sweep.
type PointValue struct {
	Index int
	Value json.RawMessage
	// Err annotates a failed point ("" = Value holds the result).
	Err string
}

// Evaluator evaluates a set of grid indices outside the in-process
// pass — fanned out across worker peers — returning one PointValue per
// index, any order. The shard coordinator's Evaluate method is one;
// the sweep entry points take nil to mean "evaluate in this process".
type Evaluator func(ctx context.Context, g *Grid, indices []int) ([]PointValue, error)

// evalInProcess runs the given grid indices on the worker pool — the
// one place a sweep uses the pool. Each point keeps its own checkpoint
// key, fault-injection site, span, and retry budget. It returns the
// typed values in indices order; under config.PartialResults a failed
// point leaves a nil value and its error label in errs (same length,
// "" = computed) instead of failing the pass.
func evalInProcess(ctx context.Context, g *Grid, indices []int) (vals []any, errs []string, err error) {
	point := func(ctx context.Context, k int) (any, error) { return g.Eval(ctx, indices[k]) }
	errs = make([]string, len(indices))
	if !config.Get(ctx).PartialResults {
		vals, err = runner.Map(ctx, len(indices), point)
		return vals, errs, err
	}
	vals, failed, err := runner.MapPartial(ctx, len(indices), point)
	if err != nil {
		return nil, nil, err
	}
	for _, te := range failed {
		errs[te.Index] = runner.ErrLabel(te.Err)
	}
	return vals, errs, nil
}

// evaluate computes every point of g — in this process when eval is
// nil, else through eval — and returns the typed points in index order
// with the per-point error labels of a partial-results sweep ("" for a
// computed point). A failed point outside the partial posture fails
// the sweep.
func evaluate[T any](ctx context.Context, g *Grid, eval Evaluator) ([]T, []string, error) {
	pts := make([]T, g.N)
	if eval == nil {
		vals, errs, err := evalInProcess(ctx, g, allIndices(g.N))
		if err != nil {
			return nil, nil, err
		}
		for i, v := range vals {
			if errs[i] == "" {
				pts[i] = v.(T)
			}
		}
		return pts, errs, nil
	}
	vals, err := gather(ctx, g, eval)
	if err != nil {
		return nil, nil, err
	}
	partial := config.Get(ctx).PartialResults
	errs := make([]string, g.N)
	for _, v := range vals {
		if v.Err != "" {
			if !partial {
				return nil, nil, fmt.Errorf("point %s: %s", g.Key(v.Index), v.Err)
			}
			errs[v.Index] = v.Err
			continue
		}
		if err := json.Unmarshal(v.Value, &pts[v.Index]); err != nil {
			return nil, nil, fmt.Errorf("point %s: decoding value: %w", g.Key(v.Index), err)
		}
	}
	return pts, errs, nil
}

// allIndices is 0..n-1.
func allIndices(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// gather runs eval over the whole grid and validates coverage: every
// index exactly once, every value either annotated or non-empty.
func gather(ctx context.Context, g *Grid, eval Evaluator) ([]PointValue, error) {
	vals, err := eval(ctx, g, allIndices(g.N))
	if err != nil {
		return nil, err
	}
	seen := make([]bool, g.N)
	for _, v := range vals {
		if v.Index < 0 || v.Index >= g.N {
			return nil, fmt.Errorf("%s sweep: evaluator returned index %d outside grid [0, %d)", g.Kind, v.Index, g.N)
		}
		if seen[v.Index] {
			return nil, fmt.Errorf("%s sweep: evaluator returned index %d twice", g.Kind, v.Index)
		}
		seen[v.Index] = true
		if v.Err == "" && len(v.Value) == 0 {
			return nil, fmt.Errorf("%s sweep: evaluator returned empty value for index %d", g.Kind, v.Index)
		}
	}
	for i, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("%s sweep: evaluator left index %d (%s) unevaluated", g.Kind, i, g.Key(i))
		}
	}
	return vals, nil
}

// EvalPointsBatch evaluates a lease of grid indices in this process and
// encodes each point for the wire — the shard worker's (Exec) entry
// point. It is the in-process pass followed by one json.Marshal per
// point, so a merged sharded sweep is byte-identical to a local one.
// It is itself an Evaluator.
func EvalPointsBatch(ctx context.Context, g *Grid, indices []int) ([]PointValue, error) {
	vals, errs, err := evalInProcess(ctx, g, indices)
	if err != nil {
		return nil, err
	}
	out := make([]PointValue, len(indices))
	for k, i := range indices {
		if errs[k] != "" {
			out[k] = PointValue{Index: i, Err: errs[k]}
			continue
		}
		b, err := json.Marshal(vals[k])
		if err != nil {
			return nil, fmt.Errorf("point %s: encoding value: %w", g.Key(i), err)
		}
		out[k] = PointValue{Index: i, Value: b}
	}
	return out, nil
}

// EvalLocal evaluates grid indices in the calling process, one by one,
// honoring the context's partial-results posture the way a shard worker
// does. It is the serial reference Evaluator the determinism tests
// compare the pool and the coordinator against.
func EvalLocal(ctx context.Context, g *Grid, indices []int) ([]PointValue, error) {
	partial := config.Get(ctx).PartialResults
	out := make([]PointValue, 0, len(indices))
	for _, i := range indices {
		v, err := g.Eval(ctx, i)
		if err != nil {
			if !partial {
				return nil, fmt.Errorf("point %s: %w", g.Key(i), err)
			}
			out = append(out, PointValue{Index: i, Err: runner.ErrLabel(err)})
			continue
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("point %s: encoding value: %w", g.Key(i), err)
		}
		out = append(out, PointValue{Index: i, Value: b})
	}
	return out, nil
}

// depthFirst is the first depth the skeleton emits: the baseline stage
// count when minDepth asks for less (the walk cannot go shallower than
// the uncut baseline).
func depthFirst(minDepth int) int {
	if minDepth < int(numStages) {
		return int(numStages)
	}
	return minDepth
}

// widthN is the width grid's point count (FE 1-6 x BE 3-7).
const widthN = (MaxBack - MinBack + 1) * (MaxFront - MinFront + 1)

// widthAt maps a flat width-grid index to its (front, back) pair in the
// serial sweep's back-major order.
func widthAt(i int) (fe, be int) {
	const cols = MaxFront - MinFront + 1
	return MinFront + i%cols, MinBack + i/cols
}
