package spice

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/device"
)

func TestSolveDense(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveDensePivoting(t *testing.T) {
	// Zero on the diagonal requires pivoting.
	a := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x, err := solveDense(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-3) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v, want [3 2]", x)
	}
}

func TestSolveDenseSingular(t *testing.T) {
	a := [][]float64{{1, 1}, {2, 2}}
	b := []float64{1, 2}
	if _, err := solveDense(a, b); err == nil {
		t.Fatal("expected singular matrix error")
	}
}

func TestSolveDenseRandomProperty(t *testing.T) {
	// A x = b where x is known: reconstruct b = A*x and verify the solve.
	prop := func(seed uint32) bool {
		n := 3 + int(seed%4)
		a := make([][]float64, n)
		x := make([]float64, n)
		s := float64(seed%1000) + 1
		for i := range a {
			a[i] = make([]float64, n)
			x[i] = math.Sin(s + float64(i))
			for j := range a[i] {
				a[i][j] = math.Cos(s*float64(i+1) + float64(j))
				if i == j {
					a[i][j] += float64(n) // diagonally dominant
				}
			}
		}
		b := make([]float64, n)
		for i := range b {
			for j := range x {
				b[i] += a[i][j] * x[j]
			}
		}
		got, err := solveDense(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResistorDivider(t *testing.T) {
	c := NewCircuit()
	a, mid := c.Node("a"), c.Node("mid")
	c.V("V1", a, Ground, DC(10))
	c.R("R1", a, mid, 1e3)
	c.R("R2", mid, Ground, 3e3)
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := op.V(mid); math.Abs(v-7.5) > 1e-6 {
		t.Fatalf("divider = %g, want 7.5", v)
	}
	i, ok := op.SourceCurrent("V1")
	if !ok {
		t.Fatal("missing source current")
	}
	// 10 V across 4k: 2.5 mA flows out of the source (branch current
	// convention: into the + terminal), so the source delivers 25 mW.
	if p := op.SupplyPower(0); math.Abs(p-0.025) > 1e-9 {
		t.Fatalf("power = %g, want 25 mW (branch current %g)", p, i)
	}
}

func TestCurrentSource(t *testing.T) {
	c := NewCircuit()
	n := c.Node("n")
	c.I("I1", Ground, n, DC(1e-3))
	c.R("R1", n, Ground, 2e3)
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := op.V(n); math.Abs(v-2.0) > 1e-6 {
		t.Fatalf("v = %g, want 2", v)
	}
}

func TestRCTransient(t *testing.T) {
	c := NewCircuit()
	in, out := c.Node("in"), c.Node("out")
	c.V("VIN", in, Ground, Ramp{V0: 0, V1: 1, T0: 0, T1: 1e-9})
	c.R("R", in, out, 1e3)
	c.C("C", out, Ground, 1e-6)
	tau := 1e-3
	tr, err := c.Transient(2*tau, tau/500, out)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.V(out)
	// At t = tau, v = 1 - 1/e = 0.632.
	idx := len(tr.Times) / 2
	if math.Abs(tr.Times[idx]-tau) > tau/100 {
		// find closest index
		for i, tm := range tr.Times {
			if tm >= tau {
				idx = i
				break
			}
		}
	}
	if math.Abs(v[idx]-0.632) > 0.01 {
		t.Fatalf("v(tau) = %g, want 0.632", v[idx])
	}
}

func siliconInverter(t *testing.T) (*Circuit, Node, Node) {
	t.Helper()
	c := NewCircuit()
	c.MaxStep = 0.2
	in, out, vdd := c.Node("in"), c.Node("out"), c.Node("vdd")
	c.V("VDD", vdd, Ground, DC(device.SiliconVDD))
	c.V("VIN", in, Ground, DC(0))
	nm := device.SiliconNMOS(device.SiliconWN)
	pm := device.SiliconPMOS(device.SiliconWP)
	c.MOS("MN", out, in, Ground, N, nm, nm.Geom)
	c.MOS("MP", out, in, vdd, P, pm, pm.Geom)
	return c, in, out
}

func TestSiliconCMOSInverterVTC(t *testing.T) {
	c, _, out := siliconInverter(t)
	sweep, err := c.DCSweep("VIN", 0, device.SiliconVDD, 111)
	if err != nil {
		t.Fatal(err)
	}
	vtc := VTCFromSweep(sweep, out)
	voh, vol := vtc.Levels()
	if voh < 0.95*device.SiliconVDD {
		t.Errorf("VOH = %g, want near %g", voh, device.SiliconVDD)
	}
	if vol > 0.05*device.SiliconVDD {
		t.Errorf("VOL = %g, want near 0", vol)
	}
	vm := vtc.SwitchingThreshold()
	if vm < 0.35 || vm > 0.75 {
		t.Errorf("VM = %g, want mid-rail-ish", vm)
	}
	if g := vtc.MaxGain(); g < 5 {
		t.Errorf("gain = %g, want > 5 for complementary CMOS", g)
	}
	nmh, nml := vtc.NoiseMargins()
	if nmh < 0.2 || nml < 0.2 {
		t.Errorf("noise margins = %g/%g, want > 0.2 V each", nmh, nml)
	}
	if nmh > 0.52*device.SiliconVDD || nml > 0.52*device.SiliconVDD {
		t.Errorf("noise margins = %g/%g cannot exceed ~VDD/2", nmh, nml)
	}
}

func TestSiliconInverterTransient(t *testing.T) {
	c, _, out := siliconInverter(t)
	load := 2e-15
	c.C("CL", out, Ground, load)
	if err := c.SetV("VIN", Pulse{V0: 0, V1: device.SiliconVDD, Delay: 20e-12, Rise: 5e-12, Width: 300e-12, Fall: 5e-12}); err != nil {
		t.Fatal(err)
	}
	tr, err := c.Transient(600e-12, 0.25e-12, out)
	if err != nil {
		t.Fatal(err)
	}
	v := tr.V(out)
	half := device.SiliconVDD / 2
	tFall := CrossTime(tr.Times, v, half, false, 20e-12)
	if math.IsNaN(tFall) {
		t.Fatal("output never fell")
	}
	// Delay from input 50% (22.5 ps) to output 50%: expect ~ps scale.
	d := tFall - 22.5e-12
	if d < 0.1e-12 || d > 50e-12 {
		t.Errorf("fall delay = %g, want ps scale", d)
	}
	slew := Slew2080(tr.Times, v, 0, device.SiliconVDD, false, 20e-12)
	if math.IsNaN(slew) || slew <= 0 {
		t.Errorf("bad output slew %g", slew)
	}
}

func TestMOSOrientationSymmetry(t *testing.T) {
	// A MOSFET conducts symmetrically: swapping drain and source nodes
	// must give the same channel current magnitude at mirrored bias.
	m := device.SiliconNMOS(device.SiliconWN)
	dev := &mosfet{pol: N, model: m}
	i1, _, _, _ := dev.linearize(1.0, 1.1, 0) // vds = +1
	i2, _, _, _ := dev.linearize(0, 1.1, 1.0) // roles swapped
	if i1 <= 0 {
		t.Fatalf("forward current should be positive, got %g", i1)
	}
	if math.Abs(i1+i2) > 1e-12*math.Abs(i1) {
		t.Fatalf("swap asymmetry: %g vs %g", i1, i2)
	}

	// The stamped partials, for N and P devices in both orientations:
	// they sum to zero exactly and match central differences of the
	// channel current.
	devs := []struct {
		name string
		dev  *mosfet
		bias [][3]float64 // (vd, vg, vs)
	}{
		{"nmos", &mosfet{pol: N, model: device.SiliconNMOS(device.SiliconWN)},
			[][3]float64{{1.0, 1.1, 0}, {0.2, 0.9, 0}, {0, 1.1, 1.0}, {0.1, 0.8, 0.6}, {0.5, 0.2, 0}}},
		{"pmos", &mosfet{pol: P, model: device.SiliconPMOS(device.SiliconWP)},
			[][3]float64{{0, 0, 1.1}, {0.9, 0.2, 1.1}, {1.1, 0, 0}, {0.4, 0.1, 0.7}, {0.5, 1.0, 1.1}}},
		{"organic-p", &mosfet{pol: P, model: device.PentaceneGolden()},
			[][3]float64{{-10, -15, 5}, {0, -10, 5}, {5, -10, 0}, {3, 5, 5}, {-15, 0, 5}}},
	}
	for _, d := range devs {
		for _, b := range d.bias {
			vd, vg, vs := b[0], b[1], b[2]
			_, gdd, gdg, gds := d.dev.linearize(vd, vg, vs)
			if sum := gdd + gdg + gds; sum != 0 {
				t.Errorf("%s at %v: gdd+gdg+gds = %g, want exactly 0", d.name, b, sum)
			}
			cur := func(vd, vg, vs float64) float64 {
				i, _, _, _ := d.dev.linearize(vd, vg, vs)
				return i
			}
			const h = 1e-6
			fd := [3]float64{
				(cur(vd+h, vg, vs) - cur(vd-h, vg, vs)) / (2 * h),
				(cur(vd, vg+h, vs) - cur(vd, vg-h, vs)) / (2 * h),
				(cur(vd, vg, vs+h) - cur(vd, vg, vs-h)) / (2 * h),
			}
			i0 := cur(vd, vg, vs)
			for k, g := range [3]float64{gdd, gdg, gds} {
				if diff := math.Abs(g - fd[k]); diff > 1e-5*math.Abs(fd[k])+1e-7*math.Abs(i0)+1e-24 {
					t.Errorf("%s at %v: partial %d = %.10g, central difference %.10g", d.name, b, k, g, fd[k])
				}
			}
		}
	}
}

// TestNewtonWorkspaceResize adds a node to a circuit after it has been
// solved: the reused Newton workspace must grow with the new unknowns.
func TestNewtonWorkspaceResize(t *testing.T) {
	c := NewCircuit()
	a, mid := c.Node("a"), c.Node("mid")
	c.V("V1", a, Ground, DC(10))
	c.R("R1", a, mid, 1e3)
	c.R("R2", mid, Ground, 3e3)
	if _, err := c.DCOperatingPoint(); err != nil {
		t.Fatal(err)
	}
	low := c.Node("low")
	c.R("R3", mid, low, 1e3)
	c.R("R4", low, Ground, 1e3)
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	// R2 || (R3+R4) = 1.2k against R1 = 1k: mid = 10*1.2/2.2.
	if want := 10 * 1.2 / 2.2; math.Abs(op.V(mid)-want) > 1e-6 || math.Abs(op.V(low)-want/2) > 1e-6 {
		t.Fatalf("mid, low = %g, %g; want %g, %g", op.V(mid), op.V(low), want, want/2)
	}
	if st := c.Stats(); st.NewtonIters < 4 || st.GminStepping != 0 || st.SourceStepping != 0 {
		t.Fatalf("stats = %+v, want >= 2 iterations per solve and no fallbacks", st)
	}
}

func TestPMOSPullUpDirection(t *testing.T) {
	// PMOS source at VDD, gate low: must pull the output node up.
	c := NewCircuit()
	c.MaxStep = 0.2
	out, vdd := c.Node("out"), c.Node("vdd")
	c.V("VDD", vdd, Ground, DC(1.1))
	pm := device.SiliconPMOS(device.SiliconWP)
	c.MOS("MP", out, Ground, vdd, P, pm, pm.Geom)
	c.R("RL", out, Ground, 1e8)
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := op.V(out); v < 0.9*1.1 {
		t.Fatalf("PMOS pull-up gives %g, want ~VDD", v)
	}
}

func TestVTCHelpers(t *testing.T) {
	// Ideal inverter-ish VTC: piecewise linear from 5 to 0.
	vtc := VTC{
		In:  []float64{0, 2, 2.5, 3, 5},
		Out: []float64{5, 5, 2.5, 0, 0},
	}
	if vm := vtc.SwitchingThreshold(); math.Abs(vm-2.5) > 1e-9 {
		t.Errorf("VM = %g, want 2.5", vm)
	}
	if g := vtc.MaxGain(); math.Abs(g-5) > 1e-9 {
		t.Errorf("gain = %g, want 5", g)
	}
	voh, vol := vtc.Levels()
	if voh != 5 || vol != 0 {
		t.Errorf("levels = %g/%g, want 5/0", voh, vol)
	}
	nmh, nml := vtc.NoiseMargins()
	// For this symmetric sharp VTC, margins should approach ~2 V.
	if nmh < 1.5 || nml < 1.5 {
		t.Errorf("MEC margins %g/%g, want ~2 V", nmh, nml)
	}
}

func TestCrossTime(t *testing.T) {
	times := []float64{0, 1, 2, 3}
	v := []float64{0, 1, 2, 3}
	if ct := CrossTime(times, v, 1.5, true, 0); math.Abs(ct-1.5) > 1e-12 {
		t.Fatalf("cross = %g, want 1.5", ct)
	}
	if ct := CrossTime(times, v, 1.5, false, 0); !math.IsNaN(ct) {
		t.Fatalf("falling cross should be NaN, got %g", ct)
	}
	if ct := CrossTime(times, v, 2.5, true, 2.1); math.Abs(ct-2.5) > 1e-12 {
		t.Fatalf("cross after start = %g, want 2.5", ct)
	}
}

func TestStimuli(t *testing.T) {
	r := Ramp{V0: 1, V1: 3, T0: 1, T1: 3}
	for _, tc := range []struct{ t, want float64 }{{0, 1}, {1, 1}, {2, 2}, {3, 3}, {9, 3}} {
		if got := r.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("ramp(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
	p := Pulse{V0: 0, V1: 2, Delay: 1, Rise: 1, Width: 2, Fall: 1}
	for _, tc := range []struct{ t, want float64 }{{0, 0}, {1.5, 1}, {2, 2}, {3.9, 2}, {4.5, 1}, {6, 0}} {
		if got := p.At(tc.t); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("pulse(%g) = %g, want %g", tc.t, got, tc.want)
		}
	}
}

func TestSweepRestoresSource(t *testing.T) {
	c := NewCircuit()
	a := c.Node("a")
	c.V("V1", a, Ground, DC(7))
	c.R("R1", a, Ground, 1e3)
	if _, err := c.DCSweep("V1", 0, 1, 3); err != nil {
		t.Fatal(err)
	}
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := op.V(a); math.Abs(v-7) > 1e-9 {
		t.Fatalf("source not restored: %g", v)
	}
}

func TestSweepErrors(t *testing.T) {
	c := NewCircuit()
	a := c.Node("a")
	c.V("V1", a, Ground, DC(1))
	c.R("R1", a, Ground, 1e3)
	if _, err := c.DCSweep("nope", 0, 1, 3); err == nil {
		t.Fatal("expected error for unknown source")
	}
	if _, err := c.DCSweep("V1", 0, 1, 1); err == nil {
		t.Fatal("expected error for short sweep")
	}
}

func TestRCEnergyConservation(t *testing.T) {
	// Charging C through R from a step source: the source delivers
	// C*V^2, half stored and half dissipated. Checks the supply-current
	// recording and trapezoidal energy integration.
	c := NewCircuit()
	in, out := c.Node("in"), c.Node("out")
	c.V("VIN", in, Ground, Ramp{V0: 0, V1: 2, T0: 0, T1: 1e-9})
	c.R("R", in, out, 1e3)
	c.C("C", out, Ground, 1e-6)
	tau := 1e-3
	tr, err := c.Transient(12*tau, tau/400, out)
	if err != nil {
		t.Fatal(err)
	}
	e := tr.SupplyEnergy(map[string]float64{"VIN": 2}, 0, 12*tau)
	want := 1e-6 * 2 * 2 // C*V^2
	if math.Abs(e-want)/want > 0.02 {
		t.Fatalf("source energy = %g, want %g (C*V^2)", e, want)
	}
}

func TestGminSteppingFallback(t *testing.T) {
	// A floating node chain with only MOSFETs is hard for plain Newton
	// from a zero guess; the DC solver must still converge.
	c := NewCircuit()
	c.MaxStep = 0.2
	vdd := c.Node("vdd")
	c.V("VDD", vdd, Ground, DC(1.1))
	prev := vdd
	for i := 0; i < 6; i++ {
		next := c.Node(fmt.Sprintf("n%d", i))
		nm := device.SiliconNMOS(device.SiliconWN)
		c.MOS(fmt.Sprintf("M%d", i), prev, vdd, next, N, nm, nm.Geom)
		prev = next
	}
	c.R("RL", prev, Ground, 1e6)
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	v := op.V(prev)
	if v <= 0 || v > 1.1 {
		t.Fatalf("chain output %g outside rails", v)
	}
}

func TestStatsCountFallbacks(t *testing.T) {
	// A tight damping limit keeps plain Newton and gmin stepping from
	// crossing 10 V within MaxIter, so only source stepping converges.
	c := NewCircuit()
	c.MaxStep = 0.02
	a, mid := c.Node("a"), c.Node("mid")
	c.V("V1", a, Ground, DC(10))
	c.R("R1", a, mid, 1e3)
	c.R("R2", mid, Ground, 1e3)
	op, err := c.DCOperatingPoint()
	if err != nil {
		t.Fatal(err)
	}
	if v := op.V(mid); math.Abs(v-5) > 1e-6 {
		t.Fatalf("mid = %g, want 5", v)
	}
	st := c.Stats()
	if st.GminStepping != 1 || st.SourceStepping != 1 || st.NewtonIters <= 2*c.MaxIter {
		t.Fatalf("stats = %+v, want one gmin and one source-stepping fallback after two failed solves", st)
	}
}

func TestSweepMonotoneVTC(t *testing.T) {
	// The CMOS inverter VTC must be monotone non-increasing.
	c, _, out := siliconInverter(t)
	sweep, err := c.DCSweep("VIN", 0, device.SiliconVDD, 81)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i].V(out) > sweep[i-1].V(out)+1e-6 {
			t.Fatalf("VTC not monotone at point %d", i)
		}
	}
}
