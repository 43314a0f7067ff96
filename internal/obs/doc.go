// Package obs is the observability layer of the reproduction: a
// lightweight hierarchical span tracer with three sinks — a Chrome
// trace_event JSON exporter (viewable in chrome://tracing or Perfetto),
// a JSON Lines event log, and a per-invocation run manifest recording
// the exact configuration and result digests of a run.
//
// # Span model
//
// obs.Start(ctx, name, attrs...) opens a span parented to the span
// carried by ctx (if any) and returns a derived context plus the span;
// span.End() closes it. Spans record start/end time, parent id,
// goroutine id, and free-form key=value attributes. The reserved
// attribute obs.Stage(name) additionally routes the span's duration
// into runner/metrics via metrics.ObserveIn — the metrics report
// (counters, histograms, progress hook) is therefore a consumer of the
// same span stream as the trace exporters, so counters, histograms,
// traces, and manifests always agree.
//
// # Hot path
//
// The tracer has no locks. While tracing is disabled (the default),
// Start costs one atomic load plus one small allocation, and End feeds
// only the metrics stage. While enabled, each finished span claims a
// slot in a bounded preallocated buffer with one atomic add and
// publishes itself with one atomic pointer store; spans beyond the
// buffer's capacity increment a drop counter that every sink reports.
// Enabling is process-wide: Enable (or EnableCapacity) starts a fresh
// buffer, Collect snapshots it, and the Write* functions export it.
//
// # Instrumented flow
//
// internal/runner wraps every pool task in a "runner.task" span whose
// queue_wait_us attribute splits time-in-queue from execution (the span
// duration). internal/cells, internal/sta, internal/pipeline, and
// internal/core open spans for library characterization (one per cell),
// each STA run, each pipeline partitioning, each IPC simulation, each
// depth/width grid point, and each registry experiment. The cmd/
// binaries open a root span around the whole invocation, so a trace
// covers essentially all wall time with correct nesting:
// run → experiment → sweep → grid point → sta/pipeline/ipc.
//
// # Manifest
//
// NewManifest captures the Go runtime configuration and the command
// line; SetKnobs records the effective configuration knobs (keyed by
// their historical BIODEG_* spellings so manifests stay diffable);
// AddExperiment appends one experiment's wall time and SHA-256 digests
// of its rendered tables.
// Two runs with the same configuration produce byte-identical
// manifests apart from the *_wall_ms timing fields, making a manifest
// diff the cheapest possible regression check.
package obs
