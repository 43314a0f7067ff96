// Package core is the paper's primary contribution: the architectural
// design-space explorer for organic versus silicon processes. It ties
// the substrates together — characterized cell libraries (cells),
// gate-level netlists (logic), synthesis and timing (synth/sta),
// pipelining (pipeline), and the cycle-level core model (uarch) — into
// the experiments behind every figure of the evaluation (Section 5).
//
// Key entry points: OrganicTech/SiliconTech build (and cache) a
// characterized Tech; CoreDepthSweep, WidthSweep, ALUDepthSweep, and
// EnergySweep are the Figure 11-15 design-space sweeps; Experiments is
// the per-figure registry that cmd/replicate walks, and RunExperiments
// executes a slice of it concurrently.
//
// Each of the three design-space sweeps is one grid (point count,
// per-point checkpoint key, evaluator) whose independent design points
// fan out over the bounded worker pool in internal/runner, honoring
// context cancellation. Results are ordered by design point, never by
// completion, so a sweep is bit-identical to the serial loop it
// replaced at any worker count.
//
// Concurrency and caching contract: heavy intermediates (characterized
// technologies, analyzed stage and ALU netlists, per-configuration
// benchmark IPC) are memoized process-wide in per-key singleflight
// caches (runner.Memo): concurrent callers of the same design point
// share one computation, while distinct keys never contend. All
// exported functions are safe for concurrent use.
package core
