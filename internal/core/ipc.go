package core

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/runner/metrics"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// uarchConfig derives the cycle-level model's configuration from the
// widths and per-stage cut counts: front-end cuts lengthen the
// fetch-to-dispatch pipe (and thus the mispredict penalty), issue cuts
// break back-to-back wakeup, and regread/execute cuts add bypass
// latency. Writeback/retire cuts do not slow the steady-state dataflow.
func uarchConfig(fe, be int, cuts map[StageName]int) uarch.Config {
	cfg := uarch.DefaultConfig()
	cfg.FrontWidth = fe
	cfg.BackWidth = be
	if cuts != nil {
		cfg.FrontStages = cuts[StFetch] + cuts[StDecode] + cuts[StRename] + cuts[StDispatch]
		cfg.IssueStages = cuts[StIssue] - 1
		cfg.ExecStages = (cuts[StRegRead] - 1) + (cuts[StExecute] - 1)
	}
	return cfg
}

type ipcKey struct {
	bench string
	cfg   uarch.Config
}

// ipcMemo caches benchmark statistics per (benchmark, configuration)
// key: the depth and width sweeps re-request overlapping points from
// many workers, and distinct points must simulate in parallel instead
// of convoying on one package-level mutex.
var ipcMemo runner.Memo[ipcKey, uarch.Stats]

// BenchIPCCtx runs (with caching) one workload through the cycle-level
// model and returns its statistics. A cache miss simulates under an
// "ipc" span (and metrics observation) parented to the first
// requester's span.
func BenchIPCCtx(ctx context.Context, bench string, cfg uarch.Config) (uarch.Stats, error) {
	return ipcMemo.Do(ipcKey{bench, cfg}, func() (uarch.Stats, error) {
		return BenchIPCUncachedCtx(ctx, bench, cfg)
	})
}

// recordings holds each kernel's functional run, recorded once per
// process: the run and its Verify do not depend on the core
// configuration, so every simulation of a kernel replays the same
// Recording. Failed recordings are not cached.
var recordings runner.Memo[string, *uarch.Recording]

// recording returns w's verified Recording, running the kernel
// functionally under an "ipc.record" span on the first request. The
// span carries no metrics stage, so the simulation that waits for it
// still counts as exactly one "ipc" observation.
func recording(ctx context.Context, w *workload.Workload) (*uarch.Recording, error) {
	return recordings.Do(w.Name, func() (*uarch.Recording, error) {
		_, sp := obs.Start(ctx, "ipc.record", obs.KV("bench", w.Name))
		defer sp.End()
		m, err := w.NewMachine()
		if err != nil {
			return nil, err
		}
		p, err := w.Program()
		if err != nil {
			return nil, err
		}
		rec, err := uarch.Record(m, p, w.MaxInstr)
		if err != nil {
			return nil, fmt.Errorf("core: %s: %w", w.Name, err)
		}
		if err := w.Verify(m); err != nil {
			return nil, err
		}
		sp.Set("instrs", strconv.FormatUint(rec.Instrs(), 10))
		sp.Set("bytes", strconv.Itoa(rec.Bytes()))
		return rec, nil
	})
}

// BenchIPCUncachedCtx runs the cycle-level simulation every call,
// bypassing the process-wide memo of per-configuration Stats. It
// replays the kernel's Recording, so after a kernel's first call it
// times replay plus the timing model; the functional run happens once
// per kernel per process. The sweeps never want this; it exists for
// benchmarking the simulator itself (benchrun -json), where a memo hit
// would measure a map lookup instead of the model.
func BenchIPCUncachedCtx(ctx context.Context, bench string, cfg uarch.Config) (uarch.Stats, error) {
	ctx, sp := obs.Start(ctx, "ipc",
		obs.KV("bench", bench),
		obs.Int("fe", cfg.FrontWidth), obs.Int("be", cfg.BackWidth),
		obs.Stage(metrics.StageIPC))
	defer sp.End()
	w := workload.ByName(bench)
	if w == nil {
		return uarch.Stats{}, fmt.Errorf("core: unknown benchmark %q", bench)
	}
	rec, err := recording(ctx, w)
	if err != nil {
		return uarch.Stats{}, err
	}
	return uarch.Run(rec.Replay(), cfg), nil
}

// Benchmarks returns the benchmark names in reporting order.
func Benchmarks() []string {
	ws := workload.All()
	names := make([]string, len(ws))
	for i, w := range ws {
		names[i] = w.Name
	}
	return names
}

// MeanIPCCtx averages IPC over all benchmarks for one configuration
// (the metric behind Figure 13), parenting the per-benchmark
// simulations' spans to ctx.
func MeanIPCCtx(ctx context.Context, cfg uarch.Config) (float64, error) {
	var sum float64
	names := Benchmarks()
	for _, b := range names {
		st, err := BenchIPCCtx(ctx, b, cfg)
		if err != nil {
			return 0, err
		}
		sum += st.IPC
	}
	return sum / float64(len(names)), nil
}
