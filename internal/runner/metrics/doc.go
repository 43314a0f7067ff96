// Package metrics is the stage-level instrumentation of the parallel
// runner: per-stage event counters and wall-time histograms for the
// flow's expensive phases (cell characterization, static timing,
// pipelining, IPC simulation, whole experiments), a settable progress
// hook, and the classic plain-text report.
//
// Since the telemetry refactor the package is a thin, stage-labeled
// view over two families of internal/telemetry's process-default
// registry — biodeg_stage_events_total and
// biodeg_stage_duration_seconds — so the same observations surface in
// the daemon's Prometheus exposition (/metricsz) and in the text
// report (Report, /metricsz?format=text) without double bookkeeping.
// ObserveIn additionally dual-writes into a per-session registry when
// the caller supplies one (biodeg.Session's WithTelemetry).
//
// Recording is always cheap (a sync.Map handle load plus atomic adds
// into power-of-ten duration buckets) and safe from any goroutine.
// Observations arrive from the span layer (internal/obs calls ObserveIn
// when a span tagged obs.Stage ends) and from Add for untimed counts.
// Libraries record unconditionally and never print; the -metrics flag
// is read only by internal/cli, whose Run.Finish writes Report to
// stderr.
// OnProgress installs a callback fired after every observation — the
// hook for driving progress bars or SSE streams from a sweep without
// touching the sweep code. The hook lives outside the registry, so
// Reset clears the numbers but never unsubscribes it.
package metrics
