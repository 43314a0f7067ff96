// Package runner is the shared parallel-execution engine of the
// design-space explorer. Every expensive fan-out in the repository —
// cell characterization, per-stage static timing, the depth and width
// sweeps, and the experiment registry itself — runs through the same
// primitives:
//
//   - Map / MapPartial / ForEach: a bounded worker pool (sized by the
//     configuration carried in the context — see internal/config —
//     falling back to runtime.GOMAXPROCS) that executes
//     n index-addressed tasks, returns results in index order
//     regardless of completion order, captures the first error,
//     cancels the remaining tasks through the context, and converts
//     per-task panics into errors instead of crashing the process.
//     MapPartial keeps going past failures and returns them per index
//     (the partial-results posture); ForEach collects no results and
//     dispatches one index at a time. Retries, per-attempt timeouts
//     and runner.task spans apply to all three.
//
//   - Checkpointed: a task wrapper that replays a journaled result
//     under the task's key instead of computing it, and commits fresh
//     results (see Checkpoint). The sweep grids in internal/core wrap
//     each point in it.
//
//   - Memo: a per-key singleflight cache. Concurrent callers asking
//     for the same key share one computation (the others block until
//     it finishes); callers with different keys never contend beyond a
//     brief map access. Successful values are cached forever, errors
//     are not, so a failed computation is retried by the next caller.
//
// Determinism contract: Map's result slice depends only on the task
// function, never on scheduling, so a parallel sweep is bit-identical
// to the serial loop it replaced. Sub-package metrics adds the
// instrumentation layer (stage counters, wall-time histograms, the
// progress hook, and the per-stage report behind the -metrics flag).
package runner
