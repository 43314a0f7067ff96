// Package config carries the reproduction's runtime knobs — worker
// count, library disk cache, and the resilience posture (retries,
// per-stage timeouts, partial-result sweeps, fault spec) — explicitly
// instead of through BIODEG_* process environment variables.
//
// A Config travels two ways. Per-call configuration rides a context
// (WithContext/FromContext): biodeg.Session attaches its options to
// every context it hands the internal packages, so two sessions with
// different worker counts coexist in one process. Process-wide defaults
// (SetDefault/Default) back the code paths that have no context — lazy
// technology characterization, the package-default session — and are
// set once at startup by internal/cli from the parsed flags.
//
// Lookup order everywhere is: context value, else process default,
// else the zero Config (whose WorkerCount resolves to GOMAXPROCS).
package config

import (
	"context"
	"runtime"
	"sync/atomic"
	"time"
)

// Config is one coherent set of runtime knobs. The zero value means
// "all defaults": GOMAXPROCS workers, no library disk cache, no
// retries, no per-stage timeout, fail-fast sweeps.
type Config struct {
	Workers  int    // worker-pool size; <= 0 means GOMAXPROCS
	LibCache string // directory persisting characterized libraries

	// Resilience knobs (see internal/runner and internal/fault).

	// Retries is the per-task retry budget after the first failed
	// attempt; <= 0 disables retrying.
	Retries int
	// RetryBase is the exponential-backoff window base; <= 0 means
	// DefaultRetryBase.
	RetryBase time.Duration
	// StageTimeout bounds each task attempt; <= 0 means no deadline
	// beyond the caller's context.
	StageTimeout time.Duration
	// PartialResults makes the design-space sweeps annotate failed grid
	// points and keep going instead of aborting on the first error.
	PartialResults bool
	// Faults is the canonical fault-injection spec in effect ("" = off).
	// The live injector travels separately (internal/fault); this string
	// exists so manifests and reports record the chaos posture.
	Faults string

	// Checkpoint names a directory holding the crash-safe sweep journal
	// (internal/checkpoint); "" disables checkpointing. A run started
	// with the same directory resumes: journaled grid points and
	// finished experiments are replayed bit-identically instead of
	// recomputed.
	Checkpoint string
}

// DefaultRetryBase is the backoff window base when RetryBase is unset:
// attempt k waits within (2^k x 25ms)/2 .. 2^k x 25ms.
const DefaultRetryBase = 25 * time.Millisecond

// WorkerCount resolves the effective worker-pool size.
func (c Config) WorkerCount() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RetryCount resolves the effective retry budget (never negative).
func (c Config) RetryCount() int {
	if c.Retries > 0 {
		return c.Retries
	}
	return 0
}

// BackoffBase resolves the effective backoff window base.
func (c Config) BackoffBase() time.Duration {
	if c.RetryBase > 0 {
		return c.RetryBase
	}
	return DefaultRetryBase
}

// def is the process-wide default, read when a context carries no
// Config. Stored as a pointer so reads are a single atomic load.
var def atomic.Pointer[Config]

// SetDefault installs the process-wide default configuration
// (internal/cli calls this once from the parsed flag values).
func SetDefault(c Config) { def.Store(&c) }

// Default returns the process-wide default configuration, or the zero
// Config if none was installed.
func Default() Config {
	if p := def.Load(); p != nil {
		return *p
	}
	return Config{}
}

// ctxKey carries a Config through a context.
type ctxKey struct{}

// WithContext returns a context carrying c; Get on the result (and on
// contexts derived from it) returns c.
func WithContext(ctx context.Context, c Config) context.Context {
	return context.WithValue(ctx, ctxKey{}, c)
}

// FromContext returns the Config carried by ctx, if any.
func FromContext(ctx context.Context) (Config, bool) {
	c, ok := ctx.Value(ctxKey{}).(Config)
	return c, ok
}

// Get resolves the effective configuration for ctx: the context's
// Config when one was attached, else the process default.
func Get(ctx context.Context) Config {
	if c, ok := FromContext(ctx); ok {
		return c
	}
	return Default()
}
