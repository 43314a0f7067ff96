package main

import (
	"math"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// spanTree indexes a collected trace by span id and parent.
type spanTree struct {
	spans    []obs.SpanRecord
	byID     map[uint64]int
	children map[uint64][]int
}

func newSpanTree(tr obs.Trace) *spanTree {
	t := &spanTree{spans: tr.Spans, byID: map[uint64]int{}, children: map[uint64][]int{}}
	for i, s := range tr.Spans {
		t.byID[s.ID] = i
	}
	for i, s := range tr.Spans {
		if _, ok := t.byID[s.Parent]; ok {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	return t
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover.
func (t *spanTree) selfTime(i int) time.Duration {
	s := t.spans[i]
	var iv [][2]time.Duration
	for _, c := range t.children[s.ID] {
		cs := t.spans[c]
		iv = append(iv, [2]time.Duration{cs.Start, cs.Start + cs.Dur})
	}
	return s.Dur - unionWithin(iv, s.Start, s.Start+s.Dur)
}

// unionWithin is the total length of the union of intervals, clipped to
// [lo, hi].
func unionWithin(iv [][2]time.Duration, lo, hi time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// ancestors lists the indices of span i's recorded ancestors.
func (t *spanTree) ancestors(i int) []int {
	var out []int
	for j, ok := t.byID[t.spans[i].Parent]; ok; j, ok = t.byID[t.spans[j].Parent] {
		out = append(out, j)
	}
	return out
}

func (t *spanTree) named(name string) []int {
	var out []int
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, i)
		}
	}
	return out
}

func attrInt(s obs.SpanRecord, key string) int64 {
	for _, a := range s.Attrs {
		if a.Key == key {
			v, _ := strconv.ParseInt(a.Value, 10, 64)
			return v
		}
	}
	return 0
}

// analyzeTrace derives the workload-trace layer metrics from the spans
// of one traced repetition whose timed call took wallS seconds.
//
// runner.busy_s sums the leaf runner.task spans (tasks that fan out
// again would count their children twice). Concurrent pools can put
// more tasks in flight than there are CPUs, so busy time can exceed
// wall time times GOMAXPROCS. Shares are of that busy time or of wall
// time, so a layer the workload does not use reads 0.
//
// points are the durations of the "ipc" spans in milliseconds; the
// parent pools them over traced repetitions before taking percentiles.
func analyzeTrace(tr obs.Trace, wallS float64) (m map[string]float64, points []float64) {
	t := newSpanTree(tr)
	m = map[string]float64{}

	tasks := t.named("runner.task")
	inner := map[int]bool{}
	for _, i := range tasks {
		for _, a := range t.ancestors(i) {
			if t.spans[a].Name == "runner.task" {
				inner[a] = true
			}
		}
	}
	var busy, wait time.Duration
	for _, i := range tasks {
		wait += time.Duration(attrInt(t.spans[i], "queue_wait_us")) * time.Microsecond
		if !inner[i] {
			busy += t.spans[i].Dur
		}
	}
	m["runner.busy_s"] = busy.Seconds()
	m["runner.queue_wait_s"] = wait.Seconds()

	var ipcSelf time.Duration
	for _, i := range t.named("ipc") {
		ipcSelf += t.selfTime(i)
		points = append(points, float64(t.spans[i].Dur)/float64(time.Millisecond))
	}
	m["core.ipc_sims"] = float64(len(points))
	m["core.ipc_busy_frac"] = share(ipcSelf, busy)

	var staSelf time.Duration
	staCalls := t.named("sta")
	for _, i := range staCalls {
		staSelf += t.selfTime(i)
	}
	m["sta.calls"] = float64(len(staCalls))
	m["sta.busy_frac"] = share(staSelf, busy)

	wall := time.Duration(wallS * float64(time.Second))
	// The serial cut walk of a depth sweep runs from the sweep's start
	// to the first grid-point task it fans out.
	var skeleton time.Duration
	for _, i := range t.named("sweep:coredepth") {
		s := t.spans[i]
		end := s.Start + s.Dur
		for _, c := range t.children[s.ID] {
			if cs := t.spans[c]; cs.Name == "runner.task" && cs.Start < end {
				end = cs.Start
			}
		}
		skeleton += end - s.Start
	}
	m["core.depth_skeleton_frac"] = share(skeleton, wall)

	// Characterization's share of wall time is the union of its cell
	// spans; the slowest cell bounds it from below.
	var slowest time.Duration
	var chars [][2]time.Duration
	for _, i := range t.named("characterize") {
		s := t.spans[i]
		slowest = max(slowest, s.Dur)
		chars = append(chars, [2]time.Duration{s.Start, s.Start + s.Dur})
	}
	m["cells.slowest_cell_frac"] = share(slowest, wall)
	m["cells.characterize_frac"] = share(unionWithin(chars, 0, 1<<62), wall)

	var alu [][2]time.Duration
	for _, i := range t.named("sweep:aludepth") {
		alu = append(alu, [2]time.Duration{t.spans[i].Start, t.spans[i].Start + t.spans[i].Dur})
	}
	m["core.alu_sweep_frac"] = share(unionWithin(alu, 0, 1<<62), wall)
	return m, points
}

func share(part, whole time.Duration) float64 {
	if whole <= 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// rankPercentile is the nearest-rank percentile of sorted values (0
// when there are none).
func rankPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(float64(len(sorted))*p/100)) - 1
	return sorted[min(max(k, 0), len(sorted)-1)]
}
