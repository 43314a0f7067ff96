package core

import (
	"context"

	"repro/internal/config"
	"repro/internal/runner"
)

// grid is one design-space sweep viewed as a flat lattice of T-valued
// points: N points and an evaluator (Eval) that runs each under its own
// stable checkpoint key (see checkpointed). Every sweep kind builds one
// and runs it through evaluate; the enumeration order and keys are what
// a checkpoint journal records, so a resumed sweep replays
// bit-identically.
type grid[T any] struct {
	// N is the point count; valid indices are 0..N-1.
	N int
	// Eval computes point i under the context's checkpoint (a journaled
	// key replays without computing).
	Eval func(ctx context.Context, i int) (T, error)
	// skeleton is a core-depth grid's serial cut-placement walk, run
	// once and shared by Eval and the sweep assembly.
	skeleton func(ctx context.Context) ([]DepthPoint, error)
}

// checkpointed adapts a kind's point function to grid.Eval: each point
// runs under runner.Checkpointed with its own key and the kind's
// concrete type, so a journal replay decodes into T.
func checkpointed[T any](key func(int) string, point func(context.Context, int) (T, error)) func(context.Context, int) (T, error) {
	return func(ctx context.Context, i int) (T, error) {
		return runner.Checkpointed(ctx, key(i), func(ctx context.Context) (T, error) { return point(ctx, i) })
	}
}

// evaluate computes every point of g on the worker pool — the one place
// a sweep uses the pool. Each point keeps its own checkpoint key,
// fault-injection site, span, and retry budget. Points come back in
// index order. Under config.PartialResults a failed point is left zero
// with its error label in errs ("" = computed) instead of failing the
// sweep.
func evaluate[T any](ctx context.Context, g *grid[T]) (pts []T, errs []string, err error) {
	errs = make([]string, g.N)
	if !config.Get(ctx).PartialResults {
		pts, err = runner.Map(ctx, g.N, g.Eval)
		return pts, errs, err
	}
	pts, failed, err := runner.MapPartial(ctx, g.N, g.Eval)
	if err != nil {
		return nil, nil, err
	}
	for _, te := range failed {
		errs[te.Index] = runner.ErrLabel(te.Err)
	}
	return pts, errs, nil
}
