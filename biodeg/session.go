package biodeg

import (
	"context"
	"fmt"
	"log/slog"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/runner"
	"repro/internal/runner/metrics"
	"repro/internal/telemetry"
	"repro/internal/uarch"
)

// Session is the context-first entry point to the reproduction: a
// bundle of runtime options (worker count, library cache, tracer) that
// every method threads through the context it passes down. Two sessions with different options coexist in one
// process without touching shared mutable state — Session replaces the
// BIODEG_* process-environment globals the package grew up with.
//
// A Session is immutable after New and safe for concurrent use by any
// number of goroutines; the HTTP daemon (cmd/biodegd) serves all
// requests from one shared Session.
//
// Each config-backed option is an edit of config.Config, applied over
// the process default configuration (installed by internal/cli from
// the command-line flags) at call time, so fields no option sets keep
// following the flags.
type Session struct {
	// edits are the config.Config changes the options asked for,
	// applied in order over the process default at call time.
	edits     []func(*config.Config)
	tracer    *obs.Tracer
	telemetry *telemetry.Registry
	logger    *slog.Logger
	inj       *fault.Injector // WithFaults; nil follows the process default

	// Durability (see WithCheckpoint). The journal opens lazily on the
	// session's first operation and stays open until Close.
	cpOnce    sync.Once
	cpJournal *checkpoint.Journal
	cpErr     error
}

// Option configures a Session at New time.
type Option func(*Session)

// edit returns an Option that records one change to the session's
// effective configuration.
func edit(fn func(*config.Config)) Option {
	return func(s *Session) { s.edits = append(s.edits, fn) }
}

// WithWorkers fixes the session's worker-pool size for every sweep and
// experiment the session runs. n <= 0 means GOMAXPROCS.
func WithWorkers(n int) Option {
	return edit(func(c *config.Config) { c.Workers = n })
}

// WithLibCache names a directory persisting characterized libraries
// across processes. Note the characterized-library memo itself is
// process-wide (characterization is deterministic, so sessions share
// its results); this option matters for the session that triggers the
// first characterization.
func WithLibCache(dir string) Option {
	return edit(func(c *config.Config) { c.LibCache = dir })
}

// Tracer is an independent span collector (see internal/obs): spans
// started under a session created WithTracer land in that tracer's
// buffer instead of the process-wide one.
type Tracer = obs.Tracer

// NewTracer returns a span collector for WithTracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// WithTracer routes the session's spans into tr, so per-session traces
// can be collected (tr.Collect) and exported independently of the
// process-wide trace sinks.
func WithTracer(tr *Tracer) Option {
	return func(s *Session) { s.tracer = tr }
}

// Telemetry is an independent labeled metric registry (see
// internal/telemetry): counters, gauges, and histograms keyed by label
// sets, exposable in Prometheus text format via WritePrometheus.
type Telemetry = telemetry.Registry

// NewTelemetry returns an empty metric registry for WithTelemetry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// WithTelemetry records the session's stage events and durations into
// reg in addition to the process-default registry, so one session's
// activity can be scraped or inspected in isolation (a multi-tenant
// daemon, an A/B sweep comparison).
func WithTelemetry(reg *Telemetry) Option {
	return func(s *Session) { s.telemetry = reg }
}

// WithLogger attaches l to every context the session's methods derive,
// so instrumented code logs through the session's logger (obs.LoggerFrom)
// instead of the process default. Lines still carry the span_id of the
// enclosing span when the handler is wrapped with obs.NewLogHandler.
func WithLogger(l *slog.Logger) Option {
	return func(s *Session) { s.logger = l }
}

// FaultSpec is a parsed fault-injection plan (see ParseFaults and
// internal/fault for the spec syntax and fault model).
type FaultSpec = fault.Spec

// ParseFaults reads the -faults flag syntax, e.g.
// "seed=1,rate=0.1,kinds=error+latency,stages=depth-point".
func ParseFaults(s string) (FaultSpec, error) { return fault.Parse(s) }

// WithFaults gives the session its own deterministic fault injector:
// every sweep the session runs draws injections from spec, independent
// of the process-wide -faults posture. A disabled spec (zero value)
// leaves the session following the process default. Chaos sweeps
// usually pair this with WithPartialResults(true) and WithRetries.
func WithFaults(spec FaultSpec) Option {
	return func(s *Session) { s.inj = fault.New(spec) }
}

// WithPartialResults makes the session's design-space sweeps annotate
// failed grid points (DepthPoint.Errors, the Err fields of ALUPoint and
// WidthPoint) and keep going instead of aborting on the first error.
func WithPartialResults(on bool) Option {
	return edit(func(c *config.Config) { c.PartialResults = on })
}

// WithRetries gives every sweep task a per-task retry budget: a failed
// grid point is re-attempted up to n times with exponential backoff
// before it counts as failed. n <= 0 disables retrying.
func WithRetries(n int) Option {
	return edit(func(c *config.Config) { c.Retries = n })
}

// WithStageTimeout bounds each task attempt (one grid point, one
// benchmark simulation) with its own deadline, so a wedged stage fails
// that attempt instead of pinning the sweep. d <= 0 means no deadline
// beyond the caller's context.
func WithStageTimeout(d time.Duration) Option {
	return edit(func(c *config.Config) { c.StageTimeout = d })
}

// WithCheckpoint names a directory holding the session's crash-safe
// sweep journal (internal/checkpoint): every completed grid point and
// finished experiment commits a durable record, and a later session
// (or process) given the same directory resumes — journaled points are
// replayed bit-identically instead of recomputed. The journal is bound
// to the session's result-shaping knobs (fault spec, partial mode); a
// directory written under different knobs is rejected with a clear
// error rather than silently merged. "" disables checkpointing. Use
// one journal directory per concurrently-running process.
func WithCheckpoint(dir string) Option {
	return edit(func(c *config.Config) { c.Checkpoint = dir })
}

// New builds a Session from the given options.
func New(opts ...Option) *Session {
	s := &Session{}
	for _, o := range opts {
		o(s)
	}
	return s
}

// config resolves the session's effective configuration: its option
// edits over the process default, read at call time.
func (s *Session) config() config.Config {
	c := config.Default()
	for _, fn := range s.edits {
		fn(&c)
	}
	if s.inj != nil {
		c.Faults = s.inj.Spec().String()
	}
	return c
}

// journal lazily opens the session's checkpoint journal — once, from
// the directory the effective config names at first use. The journal
// header is bound to the knobs that shape results (fault spec, partial
// mode), so resuming under changed knobs fails loudly instead of
// merging incompatible records.
func (s *Session) journal(ctx context.Context) (*checkpoint.Journal, error) {
	cfg := s.config()
	if cfg.Checkpoint == "" {
		return nil, nil
	}
	s.cpOnce.Do(func() {
		meta := checkpoint.Meta{
			Tool:         "biodeg",
			Label:        "session",
			ConfigDigest: journalDigest(cfg),
		}
		s.cpJournal, _, s.cpErr = checkpoint.Open(ctx, filepath.Join(cfg.Checkpoint, "journal.bdj"), meta)
	})
	return s.cpJournal, s.cpErr
}

// journalDigest binds a session journal to the knobs that shape result
// values: the fault spec and the partial-results mode. Worker count,
// cache directories, and timeouts do not change values and are not
// bound. The keys and their encoding are fixed: changing them would
// orphan every journal already on disk.
func journalDigest(cfg config.Config) string {
	return checkpoint.ConfigDigest(map[string]string{
		"faults":  cfg.Faults,
		"partial": strconv.FormatBool(cfg.PartialResults),
	})
}

// bind attaches the session's configuration (and tracer, injector,
// journal, if any) to ctx; every public method funnels through it. A
// checkpoint already on ctx (the daemon's per-job journals) wins over
// the session's own.
func (s *Session) bind(ctx context.Context) (context.Context, error) {
	ctx = config.WithContext(ctx, s.config())
	if s.tracer != nil {
		ctx = obs.ContextWithTracer(ctx, s.tracer)
	}
	if s.telemetry != nil {
		ctx = telemetry.WithContext(ctx, s.telemetry)
	}
	if s.logger != nil {
		ctx = obs.ContextWithLogger(ctx, s.logger)
	}
	if s.inj != nil {
		ctx = fault.WithInjector(ctx, s.inj)
	}
	if runner.CheckpointFrom(ctx) == nil {
		j, err := s.journal(ctx)
		if err != nil {
			return nil, err
		}
		if j != nil {
			ctx = runner.WithCheckpoint(ctx, j)
		}
	}
	return ctx, nil
}

// CheckpointStats reports the session journal's activity so far (zero
// when the session has no checkpoint directory or has not yet run).
func (s *Session) CheckpointStats() checkpoint.Stats {
	if s.cpJournal == nil {
		return checkpoint.Stats{}
	}
	return s.cpJournal.Stats()
}

// Close releases the session's checkpoint journal, if one was opened.
// Committed records are already durable; Close only ends the session.
// A Session without a checkpoint needs no Close.
func (s *Session) Close() error {
	if s.cpJournal == nil {
		return nil
	}
	return s.cpJournal.Close()
}

// FaultCounters reports what the session's own injector has fired so
// far (zero counters when the session has no WithFaults injector and
// thus follows the process default).
func (s *Session) FaultCounters() fault.Counters { return s.inj.Snapshot() }

// Workers reports the worker-pool size the session's sweeps use.
func (s *Session) Workers() int { return s.config().WorkerCount() }

// MetricsReport renders the process-wide per-stage counters and
// wall-time histograms recorded so far.
func (s *Session) MetricsReport() string { return metrics.Report() }

// Tracer returns the session's tracer, or nil when the session traces
// into the process-wide buffer.
func (s *Session) Tracer() *Tracer { return s.tracer }

// Telemetry returns the session's metric registry, or nil when the
// session records only into the process default.
func (s *Session) Telemetry() *Telemetry { return s.telemetry }

// Logger returns the session's logger, or nil when the session logs
// through the process default.
func (s *Session) Logger() *slog.Logger { return s.logger }

// ALUDepth pipelines the 32-bit complex ALU (CSA multiplier + stallable
// divider datapath) from 1 to maxStages, reproducing Figure 12. The
// sweep fans out on the session's worker pool and stops early when ctx
// is cancelled.
func (s *Session) ALUDepth(ctx context.Context, t *Technology, maxStages int) ([]ALUPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.ALUDepthSweep(ctx, t, maxStages, true, 0)
}

// CoreDepth sweeps the 9-stage baseline core to maxDepth by repeatedly
// cutting the critical stage, reproducing Figure 11. Points carry
// per-benchmark IPC and performance.
func (s *Session) CoreDepth(ctx context.Context, t *Technology, minDepth, maxDepth int) ([]DepthPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.CoreDepthSweep(ctx, t, minDepth, maxDepth, true)
}

// Widths sweeps the thirty superscalar width configurations
// (front-end 1-6 x back-end 3-7), reproducing Figures 13-14.
func (s *Session) Widths(ctx context.Context, t *Technology) ([]WidthPoint, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.WidthSweep(ctx, t)
}

// SimulateIPC runs one benchmark through the cycle-level core model,
// verifying the workload's architectural result, and returns timing
// statistics (IPC, mispredicts, cache misses).
func (s *Session) SimulateIPC(ctx context.Context, bench string, cfg CoreConfig) (Stats, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return Stats{}, err
	}
	return core.BenchIPCCtx(ctx, bench, cfg)
}

// RunExperiment runs one experiment by ID ("fig3", "fig11", ...) under
// ctx: cancelling the context stops in-flight grid points, unlike the
// deprecated top-level RunExperiment, which ignored its caller's
// lifetime.
func (s *Session) RunExperiment(ctx context.Context, id string) ([]*Table, error) {
	results, err := s.RunExperiments(ctx, id)
	if err != nil {
		return nil, err
	}
	return results[0].Tables, nil
}

// RunExperiments runs the named experiments concurrently on the
// session's worker pool (independent figures in parallel; shared heavy
// intermediates are deduplicated by the process-wide caches) and
// returns their results in the order the IDs were given. The first
// failure cancels the not-yet-started experiments.
func (s *Session) RunExperiments(ctx context.Context, ids ...string) ([]ExperimentResult, error) {
	exps := make([]*core.Experiment, len(ids))
	for i, id := range ids {
		if exps[i] = core.ExperimentByID(id); exps[i] == nil {
			return nil, fmt.Errorf("biodeg: unknown experiment %q", id)
		}
	}
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.RunExperiments(ctx, exps)
}

// RunAll runs the whole registry concurrently, in registry order.
func (s *Session) RunAll(ctx context.Context) ([]ExperimentResult, error) {
	ctx, err := s.bind(ctx)
	if err != nil {
		return nil, err
	}
	return core.RunExperiments(ctx, core.Experiments())
}

// OnProgress installs fn as a process-wide progress hook, invoked after
// every completed unit of instrumented work with the stage name, the
// stage's cumulative count, and the unit's duration. Pass nil to remove
// the hook. The callback runs on worker goroutines: keep it fast and
// concurrency-safe. The hook is process-wide (a metrics-layer
// property), not per-session.
func (s *Session) OnProgress(fn func(stage string, count int64, d time.Duration)) {
	metrics.OnProgress(fn)
}

// Result point types of the session sweeps, re-exported so consumers
// (biodeg/api, the server, examples) need not import internal packages.
type (
	// ALUPoint is one depth of the Figure 12 ALU sweep.
	ALUPoint = pipeline.Point
	// DepthPoint is one depth of the Figure 11 core sweep.
	DepthPoint = core.DepthPoint
	// WidthPoint is one (front-end, back-end) width configuration.
	WidthPoint = core.WidthPoint
	// Stats is the cycle-level simulation statistics bundle.
	Stats = uarch.Stats
)
