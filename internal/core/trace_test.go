package core

import (
	"context"
	"testing"

	"repro/internal/obs"
	"repro/internal/runner/metrics"
	"repro/internal/uarch"
	"repro/internal/workload"
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
	if _, err := CoreDepthSweep(context.Background(), tech, 9, 10, true); err != nil {
		t.Fatal(err)
	}
	if _, err := ALUDepthSweep(context.Background(), tech, 3, true, 0); err != nil {
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

// TestIPCRecordSpans pins the simulation spans: a kernel's functional
// run happens once per process, under one "ipc.record" span beneath the
// first simulation that needs it, and every simulation, replayed or
// not, is one "ipc" span and exactly one ipc-stage observation (the
// benchmark derives its simulation count from that stage).
func TestIPCRecordSpans(t *testing.T) {
	for _, b := range Benchmarks() {
		recordings.Forget(b)
	}
	cfgs := []uarch.Config{uarch.DefaultConfig(), uarch.DefaultConfig()}
	cfgs[1].FrontWidth, cfgs[1].BackWidth, cfgs[1].ICacheKB = 3, 6, 4
	before := metrics.Count(metrics.StageIPC)
	obs.Enable()
	defer obs.Disable()
	for _, b := range Benchmarks() {
		for _, cfg := range cfgs {
			if _, err := BenchIPCUncachedCtx(context.Background(), b, cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	sims := len(Benchmarks()) * len(cfgs)
	if got := metrics.Count(metrics.StageIPC) - before; got != int64(sims) {
		t.Errorf("%d ipc-stage observations for %d simulations", got, sims)
	}
	tr := obs.Collect()
	byID := map[uint64]obs.SpanRecord{}
	for _, s := range tr.Spans {
		byID[s.ID] = s
	}
	attrs := func(s obs.SpanRecord) map[string]string {
		m := map[string]string{}
		for _, a := range s.Attrs {
			m[a.Key] = a.Value
		}
		return m
	}
	ipcSpans, recorded := 0, map[string]int{}
	for _, s := range tr.Spans {
		switch s.Name {
		case "ipc":
			ipcSpans++
			if s.Stage != metrics.StageIPC {
				t.Errorf("ipc span has stage %q", s.Stage)
			}
		case "ipc.record":
			a := attrs(s)
			recorded[a["bench"]]++
			if s.Stage != "" {
				t.Errorf("ipc.record span for %s has stage %q, want none", a["bench"], s.Stage)
			}
			if a["instrs"] == "" || a["bytes"] == "" {
				t.Errorf("ipc.record span for %s lacks instrs/bytes: %v", a["bench"], a)
			}
			if p := byID[s.Parent]; p.Name != "ipc" || attrs(p)["bench"] != a["bench"] {
				t.Errorf("ipc.record span for %s has parent %q (%v), want its kernel's ipc span", a["bench"], p.Name, attrs(p))
			}
		}
	}
	if ipcSpans != sims {
		t.Errorf("%d ipc spans for %d simulations", ipcSpans, sims)
	}
	for _, b := range Benchmarks() {
		if recorded[b] != 1 {
			t.Errorf("%s: %d ipc.record spans, want 1", b, recorded[b])
		}
	}
}

// TestRecordingVerifyFailureIsNotReplayed checks that a kernel cut off
// at MaxInstr before HALT fails with its Verify error and leaves no
// recording behind to replay.
func TestRecordingVerifyFailureIsNotReplayed(t *testing.T) {
	w := &workload.Workload{
		Name:      "spin",
		Asm:       "loop:\n    j loop\n",
		MaxInstr:  1000,
		Reference: func() uint32 { return 0 },
	}
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(w.MaxInstr, nil); err != nil {
		t.Fatal(err)
	}
	want := w.Verify(m)
	if want == nil {
		t.Fatal("the spinning kernel should fail Verify")
	}
	cached := recordings.Len()
	for i := 0; i < 2; i++ {
		rec, err := recording(context.Background(), w)
		if rec != nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("call %d: recording = %v, %v; want nil, %v", i, rec, err, want)
		}
	}
	if n := recordings.Len(); n != cached {
		t.Errorf("recordings went from %d to %d entries; the failed kernel was cached", cached, n)
	}
}
