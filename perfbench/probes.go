package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cells"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/liberty"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/spice"
	"repro/internal/sta"
	"repro/internal/synth"
	"repro/internal/uarch"
	"repro/internal/workload"
)

// probeSet times calls into each layer's public functions. Every probe
// checks its result before its numbers count.
type probeSet struct {
	rng    *rand.Rand
	rep    *repReport
	layers map[string]float64
}

func (p *probeSet) check(ok bool, format string, args ...any) {
	p.rep.Attempted++
	if !ok {
		p.rep.Failed++
		p.rep.Failures = append(p.rep.Failures, fmt.Sprintf(format, args...))
	}
}

// medianTime runs fn n times and returns the median duration.
func medianTime(n int, fn func()) time.Duration {
	ds := make([]time.Duration, n)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = time.Since(start)
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[n/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runProbes times each layer on seeded inputs. Tracing is off for the
// disabled-span probe and on afterwards, so that characterization
// leaves its per-cell spans.
func runProbes(seed int64, rep *repReport) error {
	p := &probeSet{rng: rand.New(rand.NewSource(seed)), rep: rep, layers: map[string]float64{}}
	rep.Layers = p.layers
	p.spanDisabled()
	obs.Enable()
	p.device()
	p.spice()
	libs, err := p.characterize()
	if err != nil {
		return err
	}
	p.liberty(libs["organic"])
	p.logicPath(libs)
	p.isa()
	p.uarch()
	return nil
}

func (p *probeSet) spanDisabled() {
	const n = 200_000
	ctx := context.Background()
	d := medianTime(5, func() {
		for i := 0; i < n; i++ {
			_, sp := obs.Start(ctx, "perfbench.noop")
			sp.End()
		}
	})
	p.check(!obs.Enabled() && len(obs.Collect().Spans) == 0, "obs: spans recorded with tracing off")
	p.layers["obs.span_disabled_ns"] = float64(d.Nanoseconds()) / n
}

// device evaluates both drain-current models on a seeded bias grid.
func (p *probeSet) device() {
	const n = 4096
	type model interface {
		ID(vgs, vds float64) float64
	}
	run := func(name string, m model, vmax float64) {
		vgs, vds := make([]float64, n), make([]float64, n)
		for i := range vgs {
			vgs[i], vds[i] = p.rng.Float64()*vmax, p.rng.Float64()*vmax
		}
		var sum float64
		const reps = 50
		d := medianTime(5, func() {
			sum = 0
			for r := 0; r < reps; r++ {
				for i := range vgs {
					sum += m.ID(vgs[i], vds[i])
				}
			}
		})
		p.check(!math.IsNaN(sum) && !math.IsInf(sum, 0) && sum != 0, "device %s: drain-current sum %g", name, sum)
		p.layers["device."+name+"_id_ns"] = float64(d.Nanoseconds()) / (n * reps)
	}
	run("level61", device.PentaceneGolden(), 20)
	run("vsat", device.SiliconNMOS(1e-6), 1.1)
}

// spice runs one organic INV output-falling transient at the
// characterization step count, and one pseudo-E VTC sweep.
func (p *probeSet) spice() {
	t := cells.Organic()
	var inv *cells.Proto
	for _, pr := range t.Protos {
		if pr.Name == "INV" {
			inv = pr
		}
	}
	if inv == nil {
		p.check(false, "spice: organic technology has no INV")
		return
	}
	steps := cells.DefaultCharConfig().Steps
	tramp := t.TimeScale / 0.6
	window := 6*tramp + 60*t.TimeScale
	hold := window * 0.15
	var cross float64
	var err error
	d := medianTime(5, func() {
		c := spice.NewCircuit()
		c.MaxStep = t.MaxStep
		vdd, vss, in, out := c.Node("vdd"), c.Node("vss"), c.Node("in_A"), c.Node("out")
		c.V("VDD", vdd, spice.Ground, spice.DC(t.VDD))
		c.V("VSS", vss, spice.Ground, spice.DC(t.VSS))
		c.V("VIN", in, spice.Ground, spice.Ramp{V0: 0, V1: t.VDD, T0: hold, T1: hold + tramp})
		inv.Build(c, map[string]spice.Node{"vdd": vdd, "vss": vss, inv.Inputs[0]: in, inv.Output: out})
		c.C("CL", out, spice.Ground, inv.InputCap)
		var tr *spice.Tran
		if tr, err = c.Transient(window, window/float64(steps), out); err == nil {
			cross = spice.CrossTime(tr.Times, tr.V(out), t.VDD/2, false, hold)
		}
	})
	p.check(err == nil && !math.IsNaN(cross) && cross > hold, "spice transient: err=%v cross=%g", err, cross)
	p.layers["spice.transient_ms"] = ms(d)

	var dc spice.InverterDC
	d = medianTime(5, func() {
		dc, _, err = cells.AnalyzeOrganicInverter(cells.PseudoE, 5, -15, 151)
	})
	p.check(err == nil && dc.VM > 0 && dc.VM < 5, "spice dc sweep: err=%v VM=%g", err, dc.VM)
	p.layers["spice.dc_sweep_ms"] = ms(d)
}

// characterize builds both 6-cell libraries from scratch, one after the
// other, and reads each cell's time from its "characterize" span.
func (p *probeSet) characterize() (map[string]*liberty.Library, error) {
	libs := map[string]*liberty.Library{}
	for _, t := range []*cells.Technology{cells.Organic(), cells.Silicon()} {
		start := time.Now()
		lib, err := cells.CharacterizeCtx(context.Background(), t, cells.DefaultCharConfig())
		p.layers["cells.characterize_s."+t.Name] = time.Since(start).Seconds()
		if err != nil {
			return nil, fmt.Errorf("characterize %s: %w", t.Name, err)
		}
		ok := len(lib.Cells) == len(t.Protos)+1
		for _, c := range lib.Cells {
			for _, a := range c.Arcs {
				ok = ok && a.DelayRise.Max() > 0 && a.DelayFall.Max() > 0
			}
		}
		p.check(ok, "characterize %s: %d cells or a non-positive delay", t.Name, len(lib.Cells))
		lib.Freeze()
		libs[t.Name] = lib
	}
	var slowest float64
	for _, s := range obs.Collect().Spans {
		if s.Name != "characterize" {
			continue
		}
		var tech, cell string
		for _, a := range s.Attrs {
			switch a.Key {
			case "tech":
				tech = a.Value
			case "cell":
				cell = a.Value
			}
		}
		p.layers["cells.cell_s."+tech+"."+cell] = s.Dur.Seconds()
		slowest = max(slowest, s.Dur.Seconds())
	}
	p.layers["cells.slowest_cell_s"] = slowest
	return libs, nil
}

// liberty writes and reads a library-cache file, and looks up one NLDM
// table at seeded points inside and outside its characterized axes.
func (p *probeSet) liberty(lib *liberty.Library) {
	var file bytes.Buffer
	var err error
	d := medianTime(5, func() {
		file.Reset()
		err = liberty.Write(&file, lib)
	})
	p.check(err == nil && file.Len() > 0, "liberty write: %v", err)
	p.layers["liberty.write_ms"] = ms(d)

	var back *liberty.Library
	d = medianTime(5, func() { back, err = liberty.Read(bytes.NewReader(file.Bytes())) })
	var again bytes.Buffer
	if err == nil {
		err = liberty.Write(&again, back)
	}
	p.check(err == nil && bytes.Equal(file.Bytes(), again.Bytes()), "liberty read: round trip differs (%v)", err)
	p.layers["liberty.read_ms"] = ms(d)

	cell := lib.MustCell("NAND2")
	lut := cell.Arcs[cell.Inputs[0]].DelayRise
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, row := range lut.Value {
		for _, v := range row {
			lo, hi = min(lo, v), max(hi, v)
		}
	}
	const n = 4096
	s0, s1 := lut.Slews[0], lut.Slews[len(lut.Slews)-1]
	l0, l1 := lut.Loads[0], lut.Loads[len(lut.Loads)-1]
	query := func(name string, slew, load func() float64, ok func(v float64) bool) {
		ss, ll := make([]float64, n), make([]float64, n)
		for i := range ss {
			ss[i], ll[i] = slew(), load()
		}
		const reps = 50
		var sum float64
		d := medianTime(5, func() {
			for r := 0; r < reps; r++ {
				for i := range ss {
					sum += lut.At(ss[i], ll[i])
				}
			}
		})
		good := !math.IsNaN(sum)
		for i := range ss {
			good = good && ok(lut.At(ss[i], ll[i]))
		}
		p.check(good, "liberty LUT.At %s: value out of range", name)
		p.layers["liberty.lut_at_ns."+name] = float64(d.Nanoseconds()) / (n * reps)
	}
	query("inside",
		func() float64 { return s0 + p.rng.Float64()*(s1-s0) },
		func() float64 { return l0 + p.rng.Float64()*(l1-l0) },
		func(v float64) bool { return v >= lo*(1-1e-12) && v <= hi*(1+1e-12) })
	query("outside",
		func() float64 { return s1 * (1.2 + 2*p.rng.Float64()) },
		func() float64 { return l1 * (1.2 + 2*p.rng.Float64()) },
		func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) })
}

// logicPath maps the 32-bit complex ALU, analyzes it in both
// technologies, and partitions the organic critical path into 22
// stages.
func (p *probeSet) logicPath(libs map[string]*liberty.Library) {
	var nl *logic.Netlist
	var design *synth.Design
	var err error
	d := medianTime(3, func() {
		nl = logic.BuildComplexALU(32)
		design, err = synth.Map(nl, libs["organic"])
	})
	p.check(err == nil && design.NumCells > 0, "synth map: %v", err)
	p.layers["synth.map_ms.alu"] = ms(d)

	var organic *sta.Result
	for _, t := range []*cells.Technology{cells.Organic(), cells.Silicon()} {
		w := sta.Wire{ResPerM: t.WireResPerM, CapPerM: t.WireCapPerM, Pitch: t.CellPitch}
		var r *sta.Result
		d := medianTime(3, func() {
			r, err = sta.AnalyzeNetlistCtx(context.Background(), nl, libs[t.Name], w, sta.Options{UseWire: true})
		})
		p.check(err == nil && r.CritPath > 0 && math.Abs(r.ProfileSum()-r.CritPath) <= 1e-9*r.CritPath,
			"sta %s: err=%v", t.Name, err)
		p.layers["sta.alu_ms."+t.Name] = ms(d)
		if t.Name == "organic" {
			organic = r
		}
	}
	if organic == nil || err != nil {
		return
	}
	const cuts, reps = 22, 200
	var period float64
	d = medianTime(5, func() {
		for r := 0; r < reps; r++ {
			period = pipeline.PartitionMinMax(organic.Profile, cuts)
		}
	})
	p.check(period >= organic.MaxGateDelay() && period >= organic.CritPath/cuts*(1-1e-12),
		"pipeline partition: period %g below its bounds", period)
	p.layers["pipeline.partition_us"] = float64(d.Nanoseconds()) / 1e3 / reps
}

// isa runs every kernel functionally, with no timing model.
func (p *probeSet) isa() {
	var instrs uint64
	ok := true
	d := medianTime(3, func() {
		instrs = 0
		for _, w := range workload.All() {
			m, err := w.Run()
			if err != nil {
				ok = false
				continue
			}
			instrs += m.Instret
		}
	})
	p.check(ok, "isa: a kernel failed Verify")
	p.layers["isa.func_minstr_per_s"] = float64(instrs) / d.Seconds() / 1e6
}

// sliceSource replays a recorded trace into the timing model.
type sliceSource struct {
	trace []isa.Trace
	i     int
}

func (s *sliceSource) Next() (isa.Trace, bool) {
	if s.i >= len(s.trace) {
		return isa.Trace{}, false
	}
	s.i++
	return s.trace[s.i-1], true
}

// uarch feeds the timing model from pre-recorded traces, so only the
// timing model is timed, and checks that replay gives the same Stats as
// the functional machine driving it directly. The summed Stats at the
// baseline configuration fingerprint the model.
func (p *probeSet) uarch() {
	cfg := uarch.DefaultConfig()
	var sum uarch.Stats
	var replay time.Duration
	for _, w := range workload.All() {
		m, err := w.NewMachine()
		if err != nil {
			p.check(false, "uarch %s: %v", w.Name, err)
			continue
		}
		src := &uarch.MachineSource{M: m, Max: w.MaxInstr}
		ref := uarch.Run(src, cfg)
		p.check(src.Err == nil && w.Verify(m) == nil, "uarch %s: machine run failed (%v) or Verify failed", w.Name, src.Err)

		m, _ = w.NewMachine() // it just succeeded for this kernel
		var rec []isa.Trace
		err = m.Run(w.MaxInstr, func(t isa.Trace) { rec = append(rec, t) })
		p.check(err == nil && w.Verify(m) == nil, "uarch %s: recording failed: %v", w.Name, err)
		var got uarch.Stats
		replay += medianTime(3, func() { got = uarch.Run(&sliceSource{trace: rec}, cfg) })
		p.check(got == ref, "uarch %s: replay Stats %+v differ from %+v", w.Name, got, ref)
		sum.Instrs += got.Instrs
		sum.Cycles += got.Cycles
		sum.Mispredicts += got.Mispredicts
		sum.LoadMisses += got.LoadMisses
	}
	p.layers["uarch.replay_minstr_per_s"] = float64(sum.Instrs) / replay.Seconds() / 1e6
	p.layers["uarch.sim_instrs"] = float64(sum.Instrs)
	p.layers["uarch.sim_cycles"] = float64(sum.Cycles)
	p.layers["uarch.mispredicts"] = float64(sum.Mispredicts)
	p.layers["uarch.load_misses"] = float64(sum.LoadMisses)
}
