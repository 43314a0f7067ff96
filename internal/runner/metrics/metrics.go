package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Stage names used by the reproduction's hot paths. Free-form strings
// are equally valid; these constants just keep the spelling consistent
// across packages.
const (
	StageCharacterize = "characterize" // NLDM cell characterization
	StageSTA          = "sta"          // static timing of one netlist
	StagePipeline     = "pipeline"     // depth partitioning / core timing
	StageIPC          = "ipc"          // cycle-level benchmark simulation
	StageExperiment   = "experiment"   // one registry experiment

	// Checkpoint counters (internal/checkpoint, internal/runner): points
	// replayed from a journal instead of recomputed, points committed to
	// a journal, and journal loads.
	StageCheckpointSkipped = "checkpoint.skipped"
	StageCheckpointCommit  = "checkpoint.commit"
	StageCheckpointLoad    = "checkpoint.load"
)

// Metric family names this package registers (on the process-default
// telemetry registry and on any per-session registry handed to
// ObserveIn). Exported so the exposition tests and docs name one truth.
const (
	// EventsMetric counts completed units per stage (ObserveIn and Add).
	EventsMetric = "biodeg_stage_events_total"
	// DurationMetric is the per-stage wall-time histogram (ObserveIn only).
	DurationMetric = "biodeg_stage_duration_seconds"
)

// bucketCount covers 1 us .. >=1000 s in power-of-ten buckets — the
// DurationBuckets decades plus the +Inf overflow slot.
const bucketCount = 10

func init() {
	if bucketCount != len(telemetry.DurationBuckets)+1 {
		panic("metrics: bucketCount out of sync with telemetry.DurationBuckets")
	}
}

// bucketIndex maps a duration to its power-of-ten histogram bucket:
// bucket i counts observations in roughly [10^i us, 10^(i+1) us).
func bucketIndex(d time.Duration) int {
	return sort.SearchFloat64s(telemetry.DurationBuckets, d.Seconds())
}

// bucketLabel renders the lower bound of bucket i.
func bucketLabel(i int) string {
	switch {
	case i < 3:
		return fmt.Sprintf("%dus", pow10(i))
	case i < 6:
		return fmt.Sprintf("%dms", pow10(i-3))
	default:
		return fmt.Sprintf("%ds", pow10(i-6))
	}
}

func pow10(n int) int {
	v := 1
	for ; n > 0; n-- {
		v *= 10
	}
	return v
}

// stageVecs is one registry's pair of per-stage families.
type stageVecs struct {
	events *telemetry.CounterVec
	dur    *telemetry.HistogramVec
}

// vecCache maps a registry to its (lazily registered) stage families,
// so the recording hot path never takes the registry's family-creation
// mutex.
var vecCache sync.Map // *telemetry.Registry -> *stageVecs

func vecsFor(r *telemetry.Registry) *stageVecs {
	if v, ok := vecCache.Load(r); ok {
		return v.(*stageVecs)
	}
	v := &stageVecs{
		events: r.Counter(EventsMetric,
			"Completed units of instrumented work per stage.", "stage"),
		dur: r.Histogram(DurationMetric,
			"Wall time of instrumented work per stage.",
			telemetry.DurationBuckets, "stage"),
	}
	actual, _ := vecCache.LoadOrStore(r, v)
	return actual.(*stageVecs)
}

// progress is the installed progress hook. It lives outside the
// registry data on purpose: Reset clears recorded series but never the
// hook, so a subscriber installed before a Reset (the daemon's SSE
// broker) keeps receiving events afterwards.
var progress atomic.Pointer[func(stage string, count int64, d time.Duration)]

// ObserveIn records one completed unit of work in a stage: it bumps
// the stage counter, accumulates wall time into the histogram, and
// fires the progress hook (if installed) with the new count. It
// records into the process-default registry and, when reg is another
// registry, into reg too — the per-session path: a biodeg.Session
// built WithTelemetry carries its registry to the span layer
// (internal/obs), which calls ObserveIn on span end.
func ObserveIn(reg *telemetry.Registry, stage string, d time.Duration) {
	secs := d.Seconds()
	def := vecsFor(telemetry.Default())
	n := def.events.With(stage).Inc()
	def.dur.With(stage).Observe(secs)
	if reg != nil && reg != telemetry.Default() {
		v := vecsFor(reg)
		v.events.With(stage).Inc()
		v.dur.With(stage).Observe(secs)
	}
	if fn := progress.Load(); fn != nil {
		(*fn)(stage, n, d)
	}
}

// Add bumps a stage's counter by n without timing (for counted events
// that have no meaningful duration, e.g. cache hits).
func Add(stage string, n int64) {
	total := vecsFor(telemetry.Default()).events.With(stage).Add(n)
	if fn := progress.Load(); fn != nil {
		(*fn)(stage, total, 0)
	}
}

// Count returns a stage's current cumulative count (0 when the stage
// was never recorded) — a cheap point read for status endpoints that
// don't need the full Snapshots pass.
func Count(stage string) int64 {
	if c, ok := vecsFor(telemetry.Default()).events.Get(stage); ok {
		return c.Value()
	}
	return 0
}

// OnProgress installs fn as the progress hook, called after every
// ObserveIn/Add with the stage name, its new cumulative count, and the
// observation's duration (0 for Add). Pass nil to remove the hook. The
// callback runs on the observing goroutine and must be fast and
// concurrency-safe. The hook is independent of the recorded data:
// Reset clears counters and histograms but leaves the hook installed.
func OnProgress(fn func(stage string, count int64, d time.Duration)) {
	if fn == nil {
		progress.Store(nil)
		return
	}
	progress.Store(&fn)
}

// Reset clears all recorded stages on the process-default registry
// (primarily for tests). The progress hook survives: a subscriber
// installed before Reset keeps receiving events for work recorded
// after it.
func Reset() {
	v := vecsFor(telemetry.Default())
	v.events.Reset()
	v.dur.Reset()
}

// Snapshot is one stage's totals at a point in time.
type Snapshot struct {
	Stage   string
	Count   int64
	Total   time.Duration
	Max     time.Duration
	Buckets [bucketCount]int64
}

// Snapshots returns every recorded stage's totals, sorted by stage name.
func Snapshots() []Snapshot {
	v := vecsFor(telemetry.Default())
	var out []Snapshot
	v.events.Range(func(labels []string, c *telemetry.Counter) {
		snap := Snapshot{Stage: labels[0], Count: c.Value()}
		if h, ok := v.dur.Get(labels[0]); ok {
			snap.Total = secondsToDuration(h.Sum())
			snap.Max = secondsToDuration(h.Max())
			copy(snap.Buckets[:], h.Buckets())
		}
		out = append(out, snap)
	})
	return out // Range iterates sorted, so out is sorted by stage
}

// secondsToDuration converts the histogram's float seconds back to a
// Duration, rounding so short sums of exact millisecond observations
// survive the float64 round trip.
func secondsToDuration(s float64) time.Duration {
	return time.Duration(math.Round(s * 1e9))
}

// Report renders the recorded stages as an aligned text table with one
// histogram line per stage, e.g.
//
//	stage         count    total      mean       max
//	sta              58    42.1s     726ms      2.1s   [1ms:3 10ms:12 ...]
func Report() string {
	snaps := Snapshots()
	if len(snaps) == 0 {
		return "metrics: nothing recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %8s %10s %10s %10s  histogram (>=bucket lower bound)\n",
		"stage", "count", "total", "mean", "max")
	for _, s := range snaps {
		mean := time.Duration(0)
		if s.Count > 0 {
			mean = s.Total / time.Duration(s.Count)
		}
		var hist []string
		for i, c := range s.Buckets {
			if c > 0 {
				hist = append(hist, fmt.Sprintf("%s:%d", bucketLabel(i), c))
			}
		}
		fmt.Fprintf(&b, "%-14s %8d %10s %10s %10s  [%s]\n",
			s.Stage, s.Count, round(s.Total), round(mean), round(s.Max),
			strings.Join(hist, " "))
	}
	return b.String()
}

// round trims a duration for display.
func round(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(10 * time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond).String()
	default:
		return d.Round(time.Nanosecond).String()
	}
}
