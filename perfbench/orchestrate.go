package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// runDeadline bounds one invocation, children included, below the
// three minutes a run may take.
const runDeadline = 170 * time.Second

// setupSamples is the number of set-up-only children per run: a
// repetition of circuit-cold takes most of the budget, so the extra
// samples keep the setup_s median, and the run's median host speed
// that scales it, steady.
const setupSamples = 15

// spec is the part of BENCHMARK.json that names the metrics; the file
// at the repository root is the one list of names and units.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec() (*spec, error) {
	b, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output: human-readable lines, then one JSON
// object as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	lines     []string
}

func (r *result) print(w io.Writer) error {
	for _, l := range r.lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

// childRun is one finished child process as the parent saw it.
type childRun struct {
	rep     repReport
	traced  bool
	setupS  float64 // spawn until the first timed call
	cpuS    float64 // user + system CPU of the child
	rssMB   float64 // peak resident set (VmHWM)
	elapsed time.Duration
}

type parent struct {
	ctx      context.Context
	exe      string
	work     string
	workload *workloadDef
	seed     int64
	libCache string // the filled cache of a warm workload
	// serial runs the workload's children on one processor
	// (GOMAXPROCS=1); see orchestrate.
	serial bool
	res    *result
	nth    int
}

func (p *parent) failure(format string, args ...any) {
	p.res.Attempted++
	p.res.Failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAIL "+format+"\n", args...)
}

// spawn runs the benchmark binary in child mode and parses the report
// it prints as its last line. env is added to the child's environment.
func (p *parent) spawn(env []string, args ...string) (*childRun, error) {
	cmd := exec.CommandContext(p.ctx, p.exe, append([]string{"child"}, args...)...)
	if env != nil {
		cmd.Env = append(os.Environ(), env...)
	}
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child %v: %w", args, err)
	}
	cr := &childRun{elapsed: time.Since(start)}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &cr.rep); err != nil {
		return nil, fmt.Errorf("child %v: report: %w", args, err)
	}
	st := cmd.ProcessState
	cr.cpuS = (st.UserTime() + st.SystemTime()).Seconds()
	if ru, ok := st.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	cr.setupS = float64(cr.rep.FirstCallNs-start.UnixNano()) / 1e9
	for _, f := range cr.rep.Failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAIL", f)
	}
	return cr, nil
}

// repetition runs the workload once (or its set-up only) in a fresh
// child. circuit-cold gets an empty library cache every time.
func (p *parent) repetition(mode string, traced bool) (*childRun, error) {
	cache := p.libCache
	if !p.workload.warm {
		p.nth++
		cache = filepath.Join(p.work, "libcache-"+strconv.Itoa(p.nth))
		if err := os.MkdirAll(cache, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(cache)
	}
	args := []string{mode, "-workload", p.workload.name, "-seed", strconv.FormatInt(p.seed, 10), "-libcache", cache}
	if traced {
		args = append(args, "-trace")
	}
	var env []string
	if p.serial {
		env = []string{"GOMAXPROCS=1"}
	}
	cr, err := p.spawn(env, args...)
	if cr != nil {
		cr.traced = traced
	}
	return cr, err
}

// ensureLibCache returns the library cache a warm workload loads from,
// filling it once per build of the benchmark: the directory is keyed
// by the executable's hash, so a cache never outlives its code.
func (p *parent) ensureLibCache(root string) (string, error) {
	b, err := os.ReadFile(p.exe)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	dir := filepath.Join(root, ".bench_build", "libcache", hex.EncodeToString(sum[:8]))
	if _, err := os.Stat(filepath.Join(dir, "organic.lib")); err == nil {
		return dir, nil
	}
	tmp := filepath.Join(p.work, "libcache-fill")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return "", err
	}
	if _, err := p.spawn(nil, "fill", "-libcache", tmp); err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Dir(dir), 0o755); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

func orchestrate(name string, seed int64, seconds int, traced bool) (*result, error) {
	sp, err := readSpec()
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	work := filepath.Join(root, ".bench_build", "work", strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	// An interrupt or SIGTERM cancels the context, which kills the
	// running child, so that no child outlives the benchmark.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	// The end-to-end run measures the workload on one processor. On a
	// host of two shared vCPUs the parallel schedule's length moves with
	// which vCPU the host delays and when each task starts (cold
	// characterization ran 15-20 s wall for 23-26 s of CPU, by
	// repetition), so a parallel wall time measures the neighbours more
	// than the program. The traced run keeps the host's processor count,
	// so that its utilization, queue-wait and critical-path metrics
	// describe the parallel schedule a user runs.
	p := &parent{ctx: ctx, exe: exe, work: work, workload: workloadByName(name), seed: seed, serial: !traced, res: &result{}}
	if p.workload.warm {
		if p.libCache, err = p.ensureLibCache(root); err != nil {
			return nil, fmt.Errorf("filling the library cache: %w", err)
		}
	}

	var setups, setupSpeeds []float64
	for i := 0; i < setupSamples; i++ {
		cr, err := p.repetition("setup", false)
		if err != nil {
			p.failure("%v", err)
			continue
		}
		setups = append(setups, cr.setupS)
		setupSpeeds = append(setupSpeeds, calRefNs/cr.rep.CalNs)
	}

	// At least two repetitions run, then more while the next one would
	// end nearer the budget than the last one did: a serial circuit-cold
	// repetition is most of a 30 s budget, so it runs exactly two. A
	// traced run alternates untraced and traced repetitions.
	var runs []*childRun
	var took []float64
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 0; ; i++ {
		tracedRep := traced && i%2 == 1
		cr, err := p.repetition("rep", tracedRep)
		if err != nil {
			p.failure("%v", err)
		} else {
			runs = append(runs, cr)
			took = append(took, cr.elapsed.Seconds())
		}
		next := time.Since(start) + time.Duration(median(took)*float64(time.Second)/2)
		enough := len(runs) >= 2
		if ctx.Err() != nil || (enough && next > budget) || (len(runs) < 2 && i >= 3) {
			break
		}
	}
	if errors.Is(ctx.Err(), context.Canceled) {
		return nil, fmt.Errorf("%s: interrupted", name)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: every repetition failed", name)
	}
	p.checkRuns(runs)

	var untraced, tracedRuns []*childRun
	for _, r := range runs {
		if r.traced {
			tracedRuns = append(tracedRuns, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	if len(untraced) == 0 || (traced && len(tracedRuns) == 0) {
		return nil, fmt.Errorf("%s: no successful repetition of each kind", name)
	}
	got := map[string]float64{}
	samples := map[string][]float64{}
	raw := map[string][]float64{}
	want := sp.EndToEnd
	if traced {
		want = sp.PerLayer
		probe, err := p.spawn(nil, "probe", "-seed", strconv.FormatInt(seed, 10))
		if err != nil {
			p.failure("%v", err)
		} else {
			p.res.Attempted += probe.rep.Attempted
			p.res.Failed += probe.rep.Failed
			for k, v := range probe.rep.Layers {
				got[k] = v
			}
		}
		for k := range tracedRuns[0].rep.Layers {
			got[k] = medianOf(tracedRuns, func(r *childRun) float64 { return r.rep.Layers[k] })
		}
		// IPC latency percentiles pool every traced repetition's
		// simulations, so that p95 has enough samples beyond it.
		var points []float64
		for _, r := range tracedRuns {
			points = append(points, r.rep.IPCPointsMs...)
		}
		sort.Float64s(points)
		got["core.ipc_point_samples"] = float64(len(points))
		got["core.ipc_point_ms.p50"] = rankPercentile(points, 50)
		got["core.ipc_point_ms.p95"] = rankPercentile(points, 95)
		wall := func(r *childRun) float64 { return r.rep.WallS }
		got["obs.trace_overhead_frac"] = medianOf(tracedRuns, wall)/medianOf(untraced, wall) - 1
		got["runner.utilization"] = medianOf(untraced, func(r *childRun) float64 { return r.rep.Utilization })
		got["biodeg.alloc_mb"] = medianOf(untraced, func(r *childRun) float64 { return r.rep.AllocMB })
		got["biodeg.gc_cycles"] = medianOf(untraced, func(r *childRun) float64 { return r.rep.GCCycles })
	} else {
		// The end-to-end metrics are medians over repetitions, each
		// repetition's times scaled to the reference speed by its own
		// calibration (calibrate.go); their quartiles are printed
		// beside them, and the raw medians after them.
		speeds := setupSpeeds
		for _, r := range runs {
			speed := calRefNs / r.rep.CalNs
			speeds = append(speeds, speed)
			add := func(k string, v, scaled float64) {
				raw[k] = append(raw[k], v)
				samples[k] = append(samples[k], scaled)
			}
			add("wall_s", r.rep.WallS, r.rep.WallS*speed)
			add("cpu_s", r.cpuS, r.cpuS*speed)
			rate := float64(r.rep.SimInstrs) / r.rep.SimS / 1e6
			add("sim_minstr_per_s", rate, rate/speed)
			add("peak_rss_mb", r.rssMB, r.rssMB)
			setups = append(setups, r.setupS)
		}
		// Set-up times are too short to pair with a calibration; they
		// take the median speed over every child of the run.
		speed := median(speeds)
		for _, v := range setups {
			raw["setup_s"] = append(raw["setup_s"], v)
			samples["setup_s"] = append(samples["setup_s"], v*speed)
		}
		for k, vs := range samples {
			got[k] = median(vs)
		}
		p.res.lines = append(p.res.lines, fmt.Sprintf("  host speed over reference: median %.4g (quartiles %.4g..%.4g)",
			speed, quantile(speeds, 0.25), quantile(speeds, 0.75)))
	}

	res := p.res
	res.Metrics = map[string]metric{}
	first := untraced[0].rep
	res.lines = append([]string{
		fmt.Sprintf("perfbench %s seed=%d trace=%v: %d repetitions (%d traced), %d setup samples",
			name, seed, traced, len(runs), len(tracedRuns), len(setups)),
		fmt.Sprintf("  properties: sims=%d sims_per_kernel=%d distinct_configs=%d lib_cache=%s sim_instrs=%d",
			first.Sims, first.SimsPerKernel, first.DistinctConfigs, first.LibCache, first.SimInstrs),
	}, res.lines...)
	for _, m := range want {
		v, ok := got[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
		line := fmt.Sprintf("  %-36s %14.6g %s", m.Name, v, m.Unit)
		if vs := samples[m.Name]; len(vs) > 0 {
			line += fmt.Sprintf("  (quartiles %.6g..%.6g, n=%d; raw median %.6g)",
				quantile(vs, 0.25), quantile(vs, 0.75), len(vs), median(raw[m.Name]))
		}
		res.lines = append(res.lines, line)
	}
	res.lines = append(res.lines, fmt.Sprintf("  error_rate %.4g (%d failed of %d attempted)",
		float64(res.Failed)/float64(max(res.Attempted, 1)), res.Failed, res.Attempted))
	res.Correct = res.Failed == 0
	return res, nil
}

// checkRuns adds each child's operations to the result, and checks
// that every repetition produced the same outputs.
func (p *parent) checkRuns(runs []*childRun) {
	for _, r := range runs {
		p.res.Attempted += r.rep.Attempted
		p.res.Failed += r.rep.Failed
	}
	for _, r := range runs[1:] {
		if r.rep.Digest != runs[0].rep.Digest || r.rep.Sims != runs[0].rep.Sims || r.rep.SimInstrs != runs[0].rep.SimInstrs {
			p.failure("output digest %s (%d sims) differs from the first repetition's %s (%d sims)",
				r.rep.Digest, r.rep.Sims, runs[0].rep.Digest, runs[0].rep.Sims)
		} else {
			p.res.Attempted++
		}
	}
}

func medianOf(runs []*childRun, f func(*childRun) float64) float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = f(r)
	}
	return median(vs)
}

// quantile returns the p-quantile of vs, interpolated linearly between
// order statistics.
func quantile(vs []float64, p float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	x := p * float64(len(s)-1)
	i := int(x)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
