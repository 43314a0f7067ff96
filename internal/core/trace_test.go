package core

import (
	"context"
	"testing"

	"repro/internal/obs"
)

// TestSweepTraceShape pins the span shape the benchmark's per-layer
// probes read: the in-process pass runs each grid point in a
// "runner.task" span that is a direct child of the sweep span, with the
// point's own span beneath it, and the core-depth skeleton walk runs
// before the first task starts.
func TestSweepTraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	tech := SiliconTech() // characterize outside the trace
	obs.Enable()
	defer obs.Disable()
	if _, err := CoreDepthSweep(context.Background(), tech, 9, 10, true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ALUDepthSweep(context.Background(), tech, 3, true, 0, nil); err != nil {
		t.Fatal(err)
	}
	tr := obs.Collect()
	byID := map[uint64]obs.SpanRecord{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	for _, c := range []struct {
		sweep, point string
		n            int
	}{
		{"sweep:coredepth", "depth-point", 2 * len(Benchmarks())},
		{"sweep:aludepth", "alu-point", 3},
	} {
		points := 0
		for _, s := range tr.Spans {
			if s.Name != c.point {
				continue
			}
			points++
			task, ok := byID[s.Parent]
			if !ok || task.Name != "runner.task" {
				t.Fatalf("%s span's parent is %q, want runner.task", c.point, task.Name)
			}
			if sweep := byID[task.Parent]; sweep.Name != c.sweep {
				t.Fatalf("runner.task under %s has parent %q, want %s", c.point, sweep.Name, c.sweep)
			}
		}
		if points != c.n {
			t.Errorf("%s: %d point spans, want %d", c.sweep, points, c.n)
		}
	}
	// The skeleton's stage analyses are children of the sweep span too;
	// every one of them ends before the first task starts.
	for _, sweep := range tr.Spans {
		if sweep.Name != "sweep:coredepth" {
			continue
		}
		firstTask, lastOther := sweep.Start+sweep.Dur, sweep.Start
		for _, s := range tr.Spans {
			if s.Parent != sweep.ID {
				continue
			}
			if s.Name == "runner.task" {
				firstTask = min(firstTask, s.Start)
			} else {
				lastOther = max(lastOther, s.Start+s.Dur)
			}
		}
		if lastOther > firstTask {
			t.Errorf("skeleton work ran until %v, after the first task started at %v", lastOther, firstTask)
		}
	}
}
