package device

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refLevel1 is a direct transcription of the Shichman-Hodges current
// equations, in the operation order the model has always used, so a
// restructuring of Eval that moves id by even one ulp fails the test.
func refLevel1(m *Level1, vgs, vds float64) float64 {
	if vds < 0 {
		vds = 0
	}
	vov := vgs - m.VT
	if vov <= 0 {
		return 0
	}
	beta := m.KP() * m.Geom.W / m.Geom.L
	clm := 1 + m.Lambda*vds
	if vds < vov {
		return beta * (vov*vds - 0.5*vds*vds) * clm
	}
	return 0.5 * beta * vov * vov * clm
}

// refVelSat transcribes the velocity-saturated smooth-min blend.
func refVelSat(m *VelSatLevel1, vgs, vds float64) float64 {
	id := refLevel1(&m.Level1, vgs, vds)
	vov := vgs - m.Level1.VT
	if m.VSat <= 0 || vov <= 0 {
		return id
	}
	limit := m.Geom.W * m.Geom.Cox * vov * m.VSat
	if limit <= 0 {
		return id
	}
	return id * limit / (id + limit)
}

// refLevel61 transcribes the Level61 equations of the type's doc comment.
func refLevel61(m *Level61, vgs, vds float64) float64 {
	if vds < 0 {
		vds = 0
	}
	nVt := (2 + math.Abs(m.Gamma)) * m.SS / math.Ln10
	if nVt <= 0 {
		nVt = 0.060 / math.Ln10
	}
	vdsShift := vds
	if m.DIBLClamp > 0 && vdsShift > m.DIBLClamp {
		vdsShift = m.DIBLClamp
	}
	vte := m.VT0 - m.DIBL*vdsShift
	x := (vgs - vte) / nVt
	var vgte float64
	switch {
	case x > 40:
		vgte = vgs - vte
	case x < -40:
		vgte = nVt * math.Exp(x)
	default:
		vgte = nVt * math.Log1p(math.Exp(x))
	}
	mu := m.Mu0
	if m.Gamma != 0 && m.VAA > 0 {
		mu *= math.Pow(vgte/m.VAA, m.Gamma)
	}
	msat := m.MSat
	if msat <= 0 {
		msat = 2.5
	}
	alpha := m.AlphaSat
	if alpha <= 0 {
		alpha = 1
	}
	vsat := alpha * vgte
	var vdse float64
	if vsat > 0 {
		vdse = vds / math.Pow(1+math.Pow(vds/vsat, msat), 1/msat)
	}
	gch := mu * m.Geom.Cox * (m.Geom.W / m.Geom.L) * vgte
	id := gch * vdse * (1 + m.Lambda*vds)
	return id + m.ILeak + m.Gmin*vds
}

// biasPoint is one (vgs, vds) sample. gSide and dSide pick the finite
// difference used as the reference for gm and gds: 0 is central, -1
// backward and +1 forward. A one-sided difference is used only on a
// kink, on the side whose branch Eval evaluates there.
type biasPoint struct {
	vgs, vds     float64
	gSide, dSide int
}

// fdRef returns the finite-difference derivative of f at v. The
// one-sided forms are second order so they stay comparable to central
// differences at the same step.
func fdRef(f func(float64) float64, v, h float64, side int) float64 {
	switch side {
	case -1:
		return (3*f(v) - 4*f(v-h) + f(v-2*h)) / (2 * h)
	case 1:
		return (-3*f(v) + 4*f(v+h) - f(v+2*h)) / (2 * h)
	}
	return (f(v+h) - f(v-h)) / (2 * h)
}

type evalCase struct {
	name  string
	m     Model
	ref   func(vgs, vds float64) float64
	pts   []biasPoint
	vgsLo float64
	vgsHi float64
	vdsHi float64
}

func level61Points(m *Level61) []biasPoint {
	nVt := (2 + math.Abs(m.Gamma)) * m.SS / math.Ln10
	vgsAt := func(x, vds float64) float64 {
		shift := vds
		if m.DIBLClamp > 0 && shift > m.DIBLClamp {
			shift = m.DIBLClamp
		}
		return m.VT0 - m.DIBL*shift + x*nVt
	}
	var pts []biasPoint
	// Both sides of the x = +-40 branch switches of the unified overdrive.
	for _, vds := range []float64{0.5, 3, 12} {
		for _, x := range []float64{-40.5, -40, -39.5, -1, 0, 1, 39.5, 40, 40.5} {
			pts = append(pts, biasPoint{vgs: vgsAt(x, vds), vds: vds})
		}
	}
	if k := m.DIBLClamp; k > 0 {
		// The DIBLClamp knee: at the knee Eval takes the below-knee
		// branch, so the reference is a backward difference.
		for _, vgs := range []float64{-2, 0, 0.4, 3, 15} {
			pts = append(pts,
				biasPoint{vgs: vgs, vds: k, dSide: -1},
				biasPoint{vgs: vgs, vds: k - 1e-2},
				biasPoint{vgs: vgs, vds: k + 1e-2})
		}
	}
	// The soft saturation knee vds ~ vsat, on and near threshold.
	alpha := m.AlphaSat
	if alpha <= 0 {
		alpha = 1
	}
	for _, vgs := range []float64{0.2, 1, 5} {
		vsat := alpha * nVt * math.Log1p(math.Exp((vgs-m.VT0)/nVt))
		for _, f := range []float64{0.3, 1, 3} {
			pts = append(pts, biasPoint{vgs: vgs, vds: f * vsat})
		}
	}
	return pts
}

func level1Points(m *Level1) []biasPoint {
	vt := m.VT
	var pts []biasPoint
	for _, vov := range []float64{0.05, 0.4, 2} {
		vgs := vt + vov
		// The triode/saturation edge vds = vov is evaluated on the
		// saturation branch, which lies at larger vds and smaller vgs.
		pts = append(pts,
			biasPoint{vgs: vgs, vds: vov, gSide: -1, dSide: 1},
			biasPoint{vgs: vgs, vds: 0.9 * vov},
			biasPoint{vgs: vgs, vds: 1.1 * vov})
	}
	// vov <= 0: off, and exactly at threshold (the off branch).
	for _, vds := range []float64{0.1, 1} {
		pts = append(pts,
			biasPoint{vgs: vt - 0.2, vds: vds},
			biasPoint{vgs: vt, vds: vds, gSide: -1},
			biasPoint{vgs: vt + 1e-3, vds: vds})
	}
	return pts
}

// velSatPoints adds the crossover where the square-law current equals
// the velocity-saturation limit, on top of the Level1 boundaries.
func velSatPoints(m *VelSatLevel1) []biasPoint {
	pts := level1Points(&m.Level1)
	for _, vds := range []float64{0.2, 1.1} {
		// In saturation id1 = limit at vov = 2*W*VSat*L/(Mu*W*clm), i.e.
		// where the two blend terms are equal.
		vov := 2 * m.VSat * m.Geom.L / (m.Mu * (1 + m.Lambda*vds))
		for _, f := range []float64{0.5, 1, 2} {
			pts = append(pts, biasPoint{vgs: m.VT + f*vov, vds: vds})
		}
	}
	return pts
}

func evalCases() []evalCase {
	golden := PentaceneGolden()
	plain := PentaceneGolden()
	plain.Gamma, plain.DIBLClamp, plain.MSat, plain.AlphaSat = 0, 0, 0, 0
	l1 := &Level1{Geom: PentaceneGeometry(), VT: 1.3, Mu: PentaceneMuLin, Lambda: 0.01}
	nmos, pmos := SiliconNMOS(SiliconWN), SiliconPMOS(SiliconWP)
	return []evalCase{
		{"level61", golden, func(a, b float64) float64 { return refLevel61(golden, a, b) }, level61Points(golden), -25, 25, 30},
		{"level61-plain", plain, func(a, b float64) float64 { return refLevel61(plain, a, b) }, level61Points(plain), -25, 25, 30},
		{"level1", l1, func(a, b float64) float64 { return refLevel1(l1, a, b) }, level1Points(l1), -5, 15, 15},
		{"vsat-n", nmos, func(a, b float64) float64 { return refVelSat(nmos, a, b) }, velSatPoints(nmos), -0.5, 1.5, 1.5},
		{"vsat-p", pmos, func(a, b float64) float64 { return refVelSat(pmos, a, b) }, velSatPoints(pmos), -0.5, 1.5, 1.5},
	}
}

// TestEvalMatchesIDAndDifferences checks every model's single-pass
// evaluation on a seeded grid plus its branch boundaries: id equals ID
// and the reference transcription bit for bit, and gm/gds match finite
// differences of ID.
func TestEvalMatchesIDAndDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, tc := range evalCases() {
		pts := append([]biasPoint(nil), tc.pts...)
		for i := 0; i < 400; i++ {
			pts = append(pts, biasPoint{
				vgs: tc.vgsLo + rng.Float64()*(tc.vgsHi-tc.vgsLo),
				vds: rng.Float64() * tc.vdsHi,
			})
		}
		// vds = 0 and vds < 0: no gds reference at or left of the origin.
		for _, vgs := range []float64{tc.vgsLo, 0.5 * (tc.vgsLo + tc.vgsHi), tc.vgsHi} {
			pts = append(pts, biasPoint{vgs: vgs, vds: 0}, biasPoint{vgs: vgs, vds: -1})
		}
		fails := 0
		for _, p := range pts {
			id, gm, gds := tc.m.Eval(p.vgs, p.vds)
			if id2 := tc.m.ID(p.vgs, p.vds); math.Float64bits(id) != math.Float64bits(id2) {
				t.Fatalf("%s(%g, %g): Eval id %v != ID %v", tc.name, p.vgs, p.vds, id, id2)
			}
			if want := tc.ref(p.vgs, p.vds); math.Float64bits(id) != math.Float64bits(want) {
				t.Fatalf("%s(%g, %g): id %v != reference %v", tc.name, p.vgs, p.vds, id, want)
			}
			if p.vds < 0 {
				if gds != 0 {
					t.Errorf("%s(%g, %g): gds = %g left of vds = 0, want 0", tc.name, p.vgs, p.vds, gds)
				}
				continue
			}
			// The floor covers leakage-level currents, where the channel
			// partials sit below the rounding noise of the total current.
			floor := 1e-7*math.Abs(id) + 1e-24
			hg := 1e-6 * math.Max(1, math.Abs(p.vgs))
			fm := fdRef(func(v float64) float64 { return tc.m.ID(v, p.vds) }, p.vgs, hg, p.gSide)
			if err := checkPartial(gm, fm, floor); err != nil {
				t.Errorf("%s gm(%g, %g): %v", tc.name, p.vgs, p.vds, err)
				fails++
			}
			if p.vds == 0 {
				continue
			}
			hd := 1e-5 * p.vds
			fd := fdRef(func(v float64) float64 { return tc.m.ID(p.vgs, v) }, p.vds, hd, p.dSide)
			if err := checkPartial(gds, fd, floor); err != nil {
				t.Errorf("%s gds(%g, %g): %v", tc.name, p.vgs, p.vds, err)
				fails++
			}
			if fails > 10 {
				t.Fatalf("%s: too many mismatches", tc.name)
			}
		}
	}
}

func checkPartial(got, want, floor float64) error {
	if math.IsNaN(got) || math.IsInf(got, 0) {
		return fmt.Errorf("analytic %v", got)
	}
	if d := math.Abs(got - want); d > 1e-5*math.Max(math.Abs(got), math.Abs(want))+floor {
		return fmt.Errorf("analytic %.10g, finite difference %.10g (diff %.3g)", got, want, d)
	}
	return nil
}
