// Package uarch is the cycle-level timing model of the AnyCore-style
// superscalar core: a trace-driven out-of-order simulator with a
// parameterized front-end width, back-end execution-pipe count, and
// pipeline depth mapping. It supplies the IPC numbers of the paper's
// evaluation (Section 5.1), which the core package combines with
// synthesized clock periods.
//
// Key entry points: DefaultConfig is the 9-stage baseline Config; Run
// simulates a TraceSource under a Config and returns Stats (IPC,
// mispredicts, cache misses); MachineSource adapts an isa.Machine into
// a TraceSource; Record runs a machine once into a compact Recording,
// whose Replay is a TraceSource yielding the same instructions without
// re-executing the program.
//
// Concurrency contract: Run keeps all simulator state in locals, so
// concurrent simulations of distinct TraceSources are safe and are how
// the sweeps parallelize their 7-benchmark x many-configuration IPC
// grids — but a single TraceSource (and the isa.Machine behind a
// MachineSource) must not be shared across simultaneous Runs. A
// Recording is immutable once Record returns and may be shared by any
// number of goroutines; each Replay call returns a fresh cursor that
// belongs to one Run. Config and Stats are plain values.
// Per-configuration results, and one Recording per kernel, are memoized
// by internal/core, not here.
package uarch
