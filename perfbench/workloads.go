package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"repro/biodeg"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/runner/metrics"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// A workload is one set of inputs the benchmark runs. setup runs in the
// child before the first timed call and counts in setup_s; run is the
// timed call. Both fill in the child's report.
type workloadDef struct {
	name string
	// warm workloads load their libraries from a cache the parent fills
	// before any timing.
	warm  bool
	setup func(c *childEnv) error
	run   func(ctx context.Context, c *childEnv) error
}

var workloads = []*workloadDef{
	{name: "circuit-cold", setup: setupCircuitCold, run: runCircuitCold},
	{name: "arch-warm", warm: true, setup: setupArchWarm, run: runArchWarm},
	{name: "ipc-sampled", setup: setupIPCSampled, run: runIPCSampled},
}

func workloadByName(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// childEnv is one child process's view of its repetition.
type childEnv struct {
	seed     int64
	libCache string
	session  *biodeg.Session
	rep      *repReport
	// ipc-sampled inputs, drawn in setup.
	sims []simInput
}

// fail records one failed operation.
func (c *childEnv) fail(format string, args ...any) {
	c.rep.Failed++
	c.rep.Failures = append(c.rep.Failures, fmt.Sprintf(format, args...))
}

// circuitIDs are the figures of the cold circuit path; goldenIDs are
// the ones with a committed rendering under internal/core/testdata.
var (
	circuitIDs = []string{"fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig12", "fig15"}
	goldenIDs  = map[string]bool{"fig3": true, "fig4": true, "fig6": true, "fig7": true, "fig8": true, "fig9": true, "fig12": true}
	archIDs    = []string{"fig11", "fig13", "fig14"}
)

func goldenPath(id string) string {
	return filepath.Join("internal", "core", "testdata", "golden", id+".tbl")
}

// render concatenates an experiment's tables exactly as the golden
// files hold them.
func render(tables []*core.Table) []byte {
	var b strings.Builder
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return []byte(b.String())
}

// useLibCache points the process-wide library cache at dir: library
// characterization is lazy and reads only the process default.
func useLibCache(dir string) {
	config.SetDefault(config.Config{LibCache: dir})
}

func setupCircuitCold(c *childEnv) error {
	// The parent hands each repetition a fresh, empty cache directory.
	entries, err := os.ReadDir(c.libCache)
	if err != nil {
		return fmt.Errorf("library cache: %w", err)
	}
	if len(entries) != 0 {
		return fmt.Errorf("library cache %s is not empty", c.libCache)
	}
	useLibCache(c.libCache)
	return nil
}

func runCircuitCold(ctx context.Context, c *childEnv) error {
	results, err := c.session.RunExperiments(ctx, circuitIDs...)
	c.rep.stopClock()
	c.rep.Attempted += len(circuitIDs) + 1
	if err != nil {
		c.fail("circuit-cold: %v", err)
		c.rep.Failed += len(circuitIDs) - 1
		return nil
	}
	h := sha256.New()
	for _, r := range results {
		got := render(r.Tables)
		h.Write(got)
		if !goldenIDs[r.Experiment.ID] {
			continue
		}
		want, err := os.ReadFile(goldenPath(r.Experiment.ID))
		if err != nil {
			c.fail("%s: golden: %v", r.Experiment.ID, err)
		} else if string(got) != string(want) {
			c.fail("%s: rendering differs from %s", r.Experiment.ID, goldenPath(r.Experiment.ID))
		}
	}
	c.rep.Digest = hex.EncodeToString(h.Sum(nil))
	for _, tech := range []string{"organic", "silicon45"} {
		if _, err := os.Stat(filepath.Join(c.libCache, tech+".lib")); err != nil {
			c.fail("library cache not written: %v", err)
			break
		}
	}
	c.rep.LibCache = libCacheState()
	return countSims(c)
}

func setupArchWarm(c *childEnv) error {
	useLibCache(c.libCache)
	biodeg.Silicon()
	biodeg.Organic()
	c.rep.LibCache = libCacheState()
	if c.rep.LibCache != "hit" {
		return fmt.Errorf("library cache %s missed", c.libCache)
	}
	return nil
}

func runArchWarm(ctx context.Context, c *childEnv) error {
	results, err := c.session.RunExperiments(ctx, archIDs...)
	c.rep.stopClock()
	c.rep.Attempted += len(archIDs)
	if err != nil {
		c.fail("arch-warm: %v", err)
		c.rep.Failed += len(archIDs) - 1
		return nil
	}
	h := sha256.New()
	for _, r := range results {
		h.Write(render(r.Tables))
	}
	c.rep.Digest = hex.EncodeToString(h.Sum(nil))
	return countSims(c)
}

// libCacheState reports whether this process characterized any cell
// ("miss") or loaded both libraries from the cache ("hit").
func libCacheState() string {
	if metrics.Count(metrics.StageCharacterize) > 0 {
		return "miss"
	}
	return "hit"
}

// countSims derives the simulated-instruction count of the experiment
// workloads. Every IPC configuration the figure sweeps request runs all
// kernels, and a kernel's dynamic instruction count does not depend on
// the core configuration, so the count is sims/kernels times the summed
// per-kernel count. The per-kernel counts come from functional runs
// after the timed call.
func countSims(c *childEnv) error {
	sims := int(metrics.Count(metrics.StageIPC))
	ws := workload.All()
	c.rep.Sims = sims
	c.rep.Attempted++
	if sims == 0 || sims%len(ws) != 0 {
		c.fail("%d IPC simulations is not a whole number of %d-kernel sets", sims, len(ws))
		return nil
	}
	c.rep.SimsPerKernel = sims / len(ws)
	c.rep.DistinctConfigs = sims / len(ws)
	for _, w := range ws {
		m, err := w.Run()
		if err != nil {
			c.fail("functional %s: %v", w.Name, err)
			return nil
		}
		c.rep.SimInstrs += uint64(c.rep.SimsPerKernel) * m.Instret
	}
	return nil
}

// simInput is one ipc-sampled simulation.
type simInput struct {
	Bench string
	Cfg   uarch.Config
}

// ipcConfigsPerKernel keeps the number of configurations per kernel
// small: this is the workload on which per-kernel reuse of functional
// work has little to share.
const ipcConfigsPerKernel = 4

// ipcAxes are the ranges drawSims samples, one per uarch.Config field
// it sets.
var ipcAxes = []struct {
	values []int
	set    func(*uarch.Config, int)
}{
	{seq(1, 6), func(c *uarch.Config, v int) { c.FrontWidth = v }},
	{seq(3, 7), func(c *uarch.Config, v int) { c.BackWidth = v }},
	{seq(4, 24), func(c *uarch.Config, v int) { c.FrontStages = v }},
	{seq(0, 3), func(c *uarch.Config, v int) { c.IssueStages = v }},
	{seq(0, 3), func(c *uarch.Config, v int) { c.ExecStages = v }},
	{seq(6, 14), func(c *uarch.Config, v int) { c.PredBits = v }},
	{[]int{1, 2, 4, 8, 16, 32}, func(c *uarch.Config, v int) { c.CacheKB = v }},
	{[]int{0, 4, 16}, func(c *uarch.Config, v int) { c.ICacheKB = v }},
}

func seq(lo, hi int) []int {
	var vs []int
	for v := lo; v <= hi; v++ {
		vs = append(vs, v)
	}
	return vs
}

// drawSims draws distinct core configurations from the seed, each
// kernel getting its own few. Small caches and predictors drive the
// miss and mispredict paths the paper grid rarely reaches. A kernel's
// configurations are a Latin hypercube: each axis is cut into as many
// strata as there are configurations, and each stratum is drawn once,
// so every seed spans each range evenly and the seed moves the total
// work little.
func drawSims(seed int64) []simInput {
	rng := rand.New(rand.NewSource(seed))
	seen := map[uarch.Config]bool{}
	var sims []simInput
	for _, bench := range core.Benchmarks() {
		for {
			cfgs := make([]uarch.Config, ipcConfigsPerKernel)
			for k := range cfgs {
				cfgs[k] = uarch.DefaultConfig()
			}
			for _, ax := range ipcAxes {
				for k, stratum := range rng.Perm(ipcConfigsPerKernel) {
					u := (float64(stratum) + rng.Float64()) / ipcConfigsPerKernel
					ax.set(&cfgs[k], ax.values[int(u*float64(len(ax.values)))])
				}
			}
			if distinct(cfgs, seen) {
				for _, cfg := range cfgs {
					seen[cfg] = true
					sims = append(sims, simInput{Bench: bench, Cfg: cfg})
				}
				break
			}
		}
	}
	return sims
}

// distinct reports whether cfgs differ from each other and from seen.
func distinct(cfgs []uarch.Config, seen map[uarch.Config]bool) bool {
	for i, c := range cfgs {
		if seen[c] {
			return false
		}
		for _, d := range cfgs[:i] {
			if c == d {
				return false
			}
		}
	}
	return true
}

func setupIPCSampled(c *childEnv) error {
	c.sims = drawSims(c.seed)
	c.rep.LibCache = "unused"
	return nil
}

func runIPCSampled(ctx context.Context, c *childEnv) error {
	stats := make([]uarch.Stats, len(c.sims))
	errs := make([]error, len(c.sims))
	// runner.ForEach bounds the simulations in flight at the worker
	// count (GOMAXPROCS); each task records its own error so that every
	// failed simulation is counted.
	err := runner.ForEach(ctx, len(c.sims), func(ctx context.Context, i int) error {
		stats[i], errs[i] = c.session.SimulateIPC(ctx, c.sims[i].Bench, c.sims[i].Cfg)
		return nil
	})
	c.rep.stopClock()
	if err != nil {
		return err
	}
	c.rep.Attempted += len(c.sims)
	var sum uarch.Stats
	h := sha256.New()
	for i, st := range stats {
		if errs[i] != nil {
			c.fail("%s: %v", c.sims[i].Bench, errs[i])
			continue
		}
		sum.Instrs += st.Instrs
		sum.Cycles += st.Cycles
		sum.CondBr += st.CondBr
		sum.Mispredicts += st.Mispredicts
		sum.Loads += st.Loads
		sum.LoadMisses += st.LoadMisses
		sum.IFMisses += st.IFMisses
	}
	fmt.Fprintf(h, "%+v", sum)
	c.rep.Digest = hex.EncodeToString(h.Sum(nil))
	c.rep.Sims = len(c.sims)
	c.rep.SimsPerKernel = ipcConfigsPerKernel
	c.rep.DistinctConfigs = len(c.sims)
	c.rep.SimInstrs = sum.Instrs
	return nil
}
