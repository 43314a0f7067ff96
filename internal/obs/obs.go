package obs

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/runner/metrics"
	"repro/internal/telemetry"
)

// Attr is one key=value annotation on a span. Values are strings so the
// hot path never reflects; use KV/Int/Bool to build them.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// KV builds a string attribute.
func KV(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, v int) Attr { return Attr{Key: key, Value: strconv.Itoa(v)} }

// Bool builds a boolean attribute.
func Bool(key string, v bool) Attr { return Attr{Key: key, Value: strconv.FormatBool(v)} }

// StageKey is the reserved attribute key that routes a span's duration
// into the runner/metrics report.
const StageKey = "stage"

// Stage marks a span as one unit of a metrics stage: when the span
// ends, its duration is recorded via metrics.ObserveIn under this name,
// making the metrics report a consumer of the span stream rather than a
// parallel bookkeeping path.
func Stage(stage string) Attr { return Attr{Key: StageKey, Value: stage} }

// Span is one timed region of work. A span is created by Start, may be
// annotated with Set while it is live, and is finished exactly once by
// End. All methods are safe on a nil receiver so call sites never need
// to branch on whether tracing is active.
type Span struct {
	st     *state              // buffer captured at Start; nil when tracing was off
	reg    *telemetry.Registry // session registry captured at Start; may be nil
	id     uint64
	parent uint64
	gid    int64
	name   string
	stage  string
	attrs  []Attr
	start  time.Time
	dur    time.Duration
	ended  atomic.Bool
}

// ID returns the span's trace-unique id, 0 when the span was started
// with tracing disabled (ids exist only while a buffer collects). The
// same id appears in the Chrome-trace/JSONL exports and in the span_id
// field structured log lines gain under NewLogHandler, so logs and
// traces of one run correlate.
func (s *Span) ID() uint64 {
	if s == nil {
		return 0
	}
	return s.id
}

// SpanID returns the id of the span carried by ctx, or 0.
func SpanID(ctx context.Context) uint64 { return FromContext(ctx).ID() }

// state is one enabled trace: a bounded lock-free span buffer. Each
// finished span claims a slot index with one atomic add and publishes
// itself with one atomic pointer store; spans that overflow the buffer
// bump the drop counter instead.
type state struct {
	begin   time.Time
	slots   []atomic.Pointer[Span]
	next    atomic.Int64
	dropped atomic.Int64
}

var (
	cur    atomic.Pointer[state]
	nextID atomic.Uint64
)

// DefaultCapacity bounds the in-memory span buffer of Enable. A full
// replicate run emits a few thousand spans; the default leaves two
// orders of magnitude of headroom while capping memory at ~2 MiB of
// slot pointers.
const DefaultCapacity = 1 << 18

// newState allocates a span buffer of capacity n.
func newState(n int) *state {
	if n < 1 {
		n = 1
	}
	return &state{begin: time.Now(), slots: make([]atomic.Pointer[Span], n)}
}

// Tracer is one independent span collector. The package-level
// Enable/Collect pair operates a single process-wide tracer (what the
// CLI sinks use); a Tracer created with NewTracer and attached to a
// context via ContextWithTracer collects only the spans started under
// that context — so two biodeg.Sessions can trace into separate
// buffers in one process.
type Tracer struct {
	st *state
}

// NewTracer returns an independent collector with DefaultCapacity.
func NewTracer() *Tracer { return NewTracerCapacity(DefaultCapacity) }

// NewTracerCapacity is NewTracer with an explicit buffer size. Once the
// buffer is full, later spans are counted as dropped rather than
// recorded.
func NewTracerCapacity(n int) *Tracer { return &Tracer{st: newState(n)} }

// Collect snapshots this tracer's buffer: every span that has ended so
// far, sorted by start time, plus the overflow drop count.
func (t *Tracer) Collect() Trace { return collect(t.st) }

// Enable starts collecting spans into a fresh process-wide buffer of
// DefaultCapacity. Spans started before Enable are not recorded.
func Enable() { EnableCapacity(DefaultCapacity) }

// EnableCapacity is Enable with an explicit buffer size (used by tests
// to exercise overflow). Once the buffer is full, later spans are
// counted as dropped rather than recorded.
func EnableCapacity(n int) { cur.Store(newState(n)) }

// Disable stops process-wide collection and discards the current
// buffer. Context-attached Tracers are unaffected.
func Disable() { cur.Store(nil) }

// Enabled reports whether the process-wide collector is active. The
// check is a single atomic load, so callers may gate optional
// instrumentation on it in hot loops. Spans under a context-attached
// Tracer are recorded regardless.
func Enabled() bool { return cur.Load() != nil }

// spanKey carries the current span through a context for parenting.
type spanKey struct{}

// tracerKey carries a context-attached Tracer.
type tracerKey struct{}

// FromContext returns the span recorded in ctx by Start, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// ContextWithTracer returns a context under which Start records spans
// into tr instead of the process-wide buffer.
func ContextWithTracer(ctx context.Context, tr *Tracer) context.Context {
	return context.WithValue(ctx, tracerKey{}, tr)
}

// TracerFromContext returns the Tracer attached to ctx, or nil.
func TracerFromContext(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// Start begins a span named name, parented to the span in ctx (if any).
// It returns a derived context carrying the new span and the span
// itself; finish it with End.
//
// When tracing is disabled the span still exists — so a Stage attribute
// keeps feeding the metrics report — but it is not buffered, carries no
// id, and the context is returned unchanged (no allocation beyond the
// span itself).
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	s := &Span{name: name, attrs: attrs}
	for _, a := range attrs {
		if a.Key == StageKey {
			s.stage = a.Value
		}
	}
	if s.stage != "" {
		// A session registry on ctx receives the stage observation too
		// (alongside the process default); capture it now so End needs
		// no context.
		s.reg = telemetry.FromContext(ctx)
	}
	st := cur.Load()
	if tr := TracerFromContext(ctx); tr != nil {
		st = tr.st // a context-attached tracer wins over the global one
	}
	if st == nil {
		s.start = time.Now()
		return ctx, s
	}
	s.st = st
	s.id = nextID.Add(1)
	s.gid = goroutineID()
	if p := FromContext(ctx); p != nil {
		s.parent = p.id
	}
	ctx = context.WithValue(ctx, spanKey{}, s)
	s.start = time.Now()
	return ctx, s
}

// Set annotates a live span (nil-safe). Only the goroutine that owns
// the span may call Set, and only before End.
func (s *Span) Set(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// End finishes the span: it stamps the duration, feeds the metrics
// stage (when one was attached), and publishes the span into the trace
// buffer. End is idempotent and nil-safe.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.dur = time.Since(s.start)
	if s.stage != "" {
		metrics.ObserveIn(s.reg, s.stage, s.dur)
	}
	if st := s.st; st != nil {
		if i := st.next.Add(1) - 1; i < int64(len(st.slots)) {
			st.slots[i].Store(s)
		} else {
			st.dropped.Add(1)
		}
	}
}

// SpanRecord is an immutable snapshot of one finished span.
type SpanRecord struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Stage  string        `json:"stage,omitempty"`
	Gid    int64         `json:"gid"`
	Start  time.Duration `json:"start_ns"` // offset from Trace.Begin
	Dur    time.Duration `json:"dur_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// Trace is a collected span stream.
type Trace struct {
	Begin   time.Time
	Spans   []SpanRecord // sorted by (Start, ID)
	Dropped int64        // spans lost to buffer overflow
}

// Collect snapshots the process-wide buffer: every span that has ended
// so far, sorted by start time, plus the overflow drop count. Collect
// does not stop collection; call it after the traced work has finished.
func Collect() Trace { return collect(cur.Load()) }

// collect snapshots one buffer (nil-safe).
func collect(st *state) Trace {
	if st == nil {
		return Trace{}
	}
	n := st.next.Load()
	if n > int64(len(st.slots)) {
		n = int64(len(st.slots))
	}
	t := Trace{Begin: st.begin, Dropped: st.dropped.Load()}
	for i := int64(0); i < n; i++ {
		s := st.slots[i].Load()
		if s == nil {
			continue // slot claimed but publish not yet visible
		}
		rec := SpanRecord{
			ID:     s.id,
			Parent: s.parent,
			Name:   s.name,
			Stage:  s.stage,
			Gid:    s.gid,
			Start:  s.start.Sub(st.begin),
			Dur:    s.dur,
		}
		// Copy attrs, dropping the reserved stage pair (already lifted).
		for _, a := range s.attrs {
			if a.Key != StageKey {
				rec.Attrs = append(rec.Attrs, a)
			}
		}
		t.Spans = append(t.Spans, rec)
	}
	sort.Slice(t.Spans, func(i, j int) bool {
		if t.Spans[i].Start != t.Spans[j].Start {
			return t.Spans[i].Start < t.Spans[j].Start
		}
		return t.Spans[i].ID < t.Spans[j].ID
	})
	return t
}

// goroutineID parses the current goroutine's id from its stack header
// ("goroutine N [...]"). ~1 us; only paid while tracing is enabled.
func goroutineID() int64 {
	var buf [40]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}
