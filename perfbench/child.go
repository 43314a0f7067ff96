package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"repro/biodeg"
	"repro/internal/obs"
	"repro/internal/runner/metrics"
)

// repReport is what one child process prints as its last line.
type repReport struct {
	// FirstCallNs is the wall clock (Unix ns) at the first timed call;
	// the parent subtracts its own spawn time to get setup_s.
	FirstCallNs int64    `json:"first_call_ns"`
	WallS       float64  `json:"wall_s"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	Failures    []string `json:"failures,omitempty"`
	// Digest hashes the outputs; it must repeat across repetitions.
	Digest string `json:"digest,omitempty"`
	// Workload properties.
	Sims            int    `json:"sims"`
	SimsPerKernel   int    `json:"sims_per_kernel"`
	DistinctConfigs int    `json:"distinct_configs"`
	SimInstrs       uint64 `json:"sim_instrs"`
	// SimS sums the durations of the timed call's IPC simulations
	// (the "ipc" stage), in thread-seconds.
	SimS float64 `json:"sim_s"`
	// CalNs is the calibration's time right after the timed call, or
	// after set-up in a set-up-only child; see calibrate.go.
	CalNs float64 `json:"cal_ns"`
	// Utilization is the timed call's CPU time over its wall time times
	// GOMAXPROCS: low means parallelism, not kernels, is the lever.
	Utilization float64 `json:"utilization"`
	LibCache    string  `json:"lib_cache"`
	// Memory behaviour over the timed call.
	AllocMB  float64 `json:"alloc_mb"`
	GCCycles float64 `json:"gc_cycles"`
	// Layers holds per-layer metrics: the trace analysis of a traced
	// repetition, or the probe results.
	Layers map[string]float64 `json:"layers,omitempty"`
	// IPCPointsMs are the traced repetition's IPC simulation latencies.
	IPCPointsMs []float64 `json:"ipc_points_ms,omitempty"`

	start time.Time
	cpu   time.Duration
	ms    runtime.MemStats
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage fails only on an invalid "who" argument.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// startClock marks the first timed call.
func (r *repReport) startClock() {
	runtime.ReadMemStats(&r.ms)
	r.cpu = processCPU()
	r.start = time.Now()
	r.FirstCallNs = r.start.UnixNano()
}

// stopClock ends the timed call; work after it (checks, digests) is
// not timed.
func (r *repReport) stopClock() {
	r.WallS = time.Since(r.start).Seconds()
	cpu := (processCPU() - r.cpu).Seconds()
	r.Utilization = cpu / (r.WallS * float64(runtime.GOMAXPROCS(0)))
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	r.AllocMB = float64(after.TotalAlloc-r.ms.TotalAlloc) / (1 << 20)
	r.GCCycles = float64(after.NumGC - r.ms.NumGC)
	for _, st := range metrics.Snapshots() {
		if st.Stage == metrics.StageIPC {
			r.SimS = st.Total.Seconds()
		}
	}
}

// childMain runs one child mode and prints its report as JSON:
//
//	rep    one timed repetition of a workload (-trace adds spans)
//	setup  the workload's set-up only, for more setup_s samples
//	probe  the per-layer probes
//	fill   characterize both libraries into -libcache
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "perfbench child: missing mode")
		return 2
	}
	mode := args[0]
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "input seed")
	libCache := fs.String("libcache", "", "library cache directory")
	traced := fs.Bool("trace", false, "collect spans")
	if err := fs.Parse(args[1:]); err != nil {
		return 2
	}
	rep := &repReport{}
	var err error
	switch mode {
	case "rep", "setup":
		err = childRep(mode == "setup", *name, *seed, *libCache, *traced, rep)
	case "probe":
		err = runProbes(*seed, rep)
	case "fill":
		useLibCache(*libCache)
		biodeg.Silicon()
		biodeg.Organic()
		if libCacheState() != "miss" {
			err = fmt.Errorf("library cache %s was not empty", *libCache)
		}
	default:
		err = fmt.Errorf("unknown mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", mode, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child %s: %v\n", mode, err)
		return 1
	}
	return 0
}

func childRep(setupOnly bool, name string, seed int64, libCache string, traced bool, rep *repReport) error {
	w := workloadByName(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	if traced {
		// Process-wide collection: library characterization starts its
		// spans from a background context, outside any session.
		obs.Enable()
	}
	c := &childEnv{seed: seed, libCache: libCache, session: biodeg.New(), rep: rep}
	if err := w.setup(c); err != nil {
		return err
	}
	rep.startClock()
	if setupOnly {
		rep.CalNs = calibrate()
		return nil
	}
	ctx, root := obs.Start(context.Background(), "perfbench.workload", obs.KV("workload", name))
	if err := w.run(ctx, c); err != nil {
		return err
	}
	root.End()
	rep.CalNs = calibrate()
	if traced {
		rep.Layers, rep.IPCPointsMs = analyzeTrace(obs.Collect(), rep.WallS)
	}
	return nil
}
