package device

import "math"

// Model is a three-terminal FET compact model in n-normalized form.
//
// Eval must return the channel current in amperes for the given
// gate-source and drain-source voltages, with vds >= 0, together with
// its analytic partial derivatives gm = dID/dvgs and gds = dID/dvds.
// Implementations must be continuous in both arguments; the circuit
// simulator builds its Newton Jacobian from these partials. For vds < 0
// a model is evaluated at vds = 0 and reports gds = 0.
type Model interface {
	// Eval returns the drain current and its partials in one pass.
	Eval(vgs, vds float64) (id, gm, gds float64)
	// ID returns the drain current in amperes for vds >= 0. It equals
	// the id of Eval bit for bit.
	ID(vgs, vds float64) float64
	// Name identifies the model (for reports and errors).
	Name() string
}

// Geometry describes the device geometry and gate stack.
type Geometry struct {
	W   float64 // channel width in meters
	L   float64 // channel length in meters
	Cox float64 // gate capacitance per unit area, F/m^2
}

// GateCap returns the total gate capacitance Cox*W*L in farads.
func (g Geometry) GateCap() float64 { return g.Cox * g.W * g.L }

// OxideCapacitance returns the per-area gate capacitance of a dielectric
// with relative permittivity epsR and thickness t (meters).
func OxideCapacitance(epsR, t float64) float64 {
	const eps0 = 8.854e-12 // F/m
	return epsR * eps0 / t
}

// Level1 is the SPICE level 1 (Shichman-Hodges) square-law MOSFET model.
// It has no subthreshold conduction and no leakage floor, which is
// exactly the deficiency the paper demonstrates in Figure 4.
type Level1 struct {
	Geom   Geometry
	VT     float64 // threshold voltage (n-normalized: conducting for vgs > VT)
	Mu     float64 // low-field mobility, m^2/(V*s)
	Lambda float64 // channel-length modulation, 1/V
}

// Name implements Model.
func (m *Level1) Name() string { return "level1" }

// KP returns the transconductance parameter Mu*Cox in A/V^2.
func (m *Level1) KP() float64 { return m.Mu * m.Geom.Cox }

// ID implements Model.
func (m *Level1) ID(vgs, vds float64) float64 {
	id, _, _ := m.Eval(vgs, vds)
	return id
}

// Eval implements Model: the square law in triode and saturation, each
// with its closed-form partials.
func (m *Level1) Eval(vgs, vds float64) (id, gm, gds float64) {
	if vds < 0 {
		id, gm, _ = m.Eval(vgs, 0)
		return id, gm, 0
	}
	vov := vgs - m.VT
	if vov <= 0 {
		return 0, 0, 0
	}
	beta := m.KP() * m.Geom.W / m.Geom.L
	clm := 1 + m.Lambda*vds
	if vds < vov {
		q := vov*vds - 0.5*vds*vds
		return beta * q * clm, beta * vds * clm, beta * ((vov-vds)*clm + q*m.Lambda)
	}
	return 0.5 * beta * vov * vov * clm, beta * vov * clm, 0.5 * beta * vov * vov * m.Lambda
}

// Level61 is an RPI-style thin-film-transistor compact model (SPICE level
// 61 class). Unlike Level1 it reproduces the experimentally observed
// subthreshold conduction, leakage floor, power-law mobility enhancement,
// and drain-induced threshold shift of accumulation-mode TFTs.
//
// The formulation follows the unified charge interpolation used by the
// RPI a-Si:H model:
//
//	vte   = VT0 - DIBL*vds                        (drain-induced shift)
//	nVt   = (2+Gamma) * SS / ln(10)               (internal slope; see below)
//	vgte  = nVt * ln(1 + exp((vgs-vte)/nVt))      (unified overdrive)
//	mu    = Mu0 * (vgte/VAA)^Gamma                (power-law mobility)
//	vsat  = AlphaSat * vgte
//	vdse  = vds / (1 + (vds/vsat)^M)^(1/M)        (smooth saturation)
//	id    = mu*Cox*(W/L)*vgte*vdse*(1+Lambda*vds) + Ileak + Gmin*vds
//
// In deep subthreshold the drain saturates (vds >> vsat), so
// id ~ vgte^(2+Gamma) and the exponential tail of vgte is raised to the
// (2+Gamma) power; the internal slope nVt is therefore scaled by
// (2+Gamma) so that the terminal characteristic exhibits one decade of
// current per SS volts of gate drive, matching how SS is measured.
type Level61 struct {
	Geom     Geometry
	VT0      float64 // zero-bias threshold voltage
	SS       float64 // subthreshold swing, V/decade
	Mu0      float64 // band mobility prefactor, m^2/(V*s)
	VAA      float64 // mobility-enhancement reference voltage
	Gamma    float64 // mobility-enhancement exponent
	AlphaSat float64 // saturation-voltage proportionality (~1)
	MSat     float64 // knee sharpness of the saturation transition
	Lambda   float64 // output-conductance parameter, 1/V
	DIBL     float64 // drain-induced threshold shift, V/V
	// DIBLClamp bounds the drain bias used in the threshold-shift term
	// (0 = unbounded). Devices are only characterized up to |VDS| = 10 V;
	// clamping avoids extrapolating the shift far beyond the data when
	// circuits place both rails (VDD - VSS up to 30 V) across a device.
	DIBLClamp float64
	ILeak     float64 // gate-independent leakage floor, A
	Gmin      float64 // minimum output conductance, S
}

// Name implements Model.
func (m *Level61) Name() string { return "level61" }

// ID implements Model.
func (m *Level61) ID(vgs, vds float64) float64 {
	id, _, _ := m.Eval(vgs, vds)
	return id
}

// Eval implements Model. The partials follow the chain rule through
// vgte, sharing its exp/log1p and the saturation pow terms:
//
//	dvgte/dvgs = s = e^x/(1+e^x)     (1 above x = 40, e^x below -40)
//	dvgte/dvds = s*DIBL              (0 above the DIBLClamp knee)
//	dich/dvgte = ich/vgte * (1 + Gamma + p/q)
//	dvdse/dvds = q^(-1/M) / q        (at fixed vgte)
//
// where ich is the channel term of id, p = (vds/vsat)^M and q = 1+p.
func (m *Level61) Eval(vgs, vds float64) (id, gm, gds float64) {
	if vds < 0 {
		id, gm, _ = m.Eval(vgs, 0)
		return id, gm, 0
	}
	gammaExp := 2 + math.Abs(m.Gamma)
	nVt := gammaExp * m.SS / math.Ln10
	if nVt <= 0 {
		nVt = 0.060 / math.Ln10
	}
	vdsShift := vds
	dibl := m.DIBL // -dvte/dvds
	if m.DIBLClamp > 0 && vdsShift > m.DIBLClamp {
		vdsShift = m.DIBLClamp
		dibl = 0
	}
	vte := m.VT0 - m.DIBL*vdsShift
	x := (vgs - vte) / nVt
	var vgte, s float64
	switch {
	case x > 40:
		vgte, s = vgs-vte, 1
	case x < -40:
		s = math.Exp(x)
		vgte = nVt * s
	default:
		e := math.Exp(x)
		vgte, s = nVt*math.Log1p(e), e/(1+e)
	}
	mu, gamma := m.Mu0, 0.0
	if m.Gamma != 0 && m.VAA > 0 {
		mu *= math.Pow(vgte/m.VAA, m.Gamma)
		gamma = m.Gamma
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
	var vdse, dvdse, pq float64
	if vsat > 0 {
		p := math.Pow(vds/vsat, msat)
		q := 1 + p
		qm := math.Pow(q, 1/msat)
		vdse = vds / qm
		dvdse = 1 / (qm * q)
		// p overflows to +Inf far past the knee, where vdse = 0 and
		// p/q would be NaN; the term then vanishes with vdse.
		if vdse > 0 {
			pq = p / q
		}
	}
	k := mu * m.Geom.Cox * (m.Geom.W / m.Geom.L) // gch / vgte
	gch := k * vgte
	clm := 1 + m.Lambda*vds
	ich := gch * vdse * clm
	dichVgte := k * vdse * clm * (1 + gamma + pq)
	gm = dichVgte * s
	gds = dichVgte*s*dibl + gch*(dvdse*clm+vdse*m.Lambda) + m.Gmin
	return ich + m.ILeak + m.Gmin*vds, gm, gds
}

// VelSatLevel1 extends Level1 with a velocity-saturation current limit,
// which is required for short-channel silicon devices: without it a 45 nm
// transistor's square-law current is wildly optimistic.
type VelSatLevel1 struct {
	Level1
	VSat float64 // carrier saturation velocity, m/s
}

// Name implements Model.
func (m *VelSatLevel1) Name() string { return "level1-vsat" }

// ID implements Model.
func (m *VelSatLevel1) ID(vgs, vds float64) float64 {
	id, _, _ := m.Eval(vgs, vds)
	return id
}

// Eval implements Model: the square-law partials pass through the
// quotient rule of the smooth-min blend.
func (m *VelSatLevel1) Eval(vgs, vds float64) (id, gm, gds float64) {
	id, gm, gds = m.Level1.Eval(vgs, vds)
	if m.VSat <= 0 {
		return id, gm, gds
	}
	vov := vgs - m.Level1.VT
	if vov <= 0 {
		return id, gm, gds
	}
	// Velocity-saturated limit: Idmax = W * Cox * vov * vsat. Blend with a
	// smooth-min so the characteristic remains continuous.
	limit := m.Geom.W * m.Geom.Cox * vov * m.VSat
	if limit <= 0 {
		return id, gm, gds
	}
	// f = id*limit/(id+limit): df/did = (limit/sum)^2, df/dlimit = (id/sum)^2.
	sum := id + limit
	wi, wl := limit/sum, id/sum
	dlimit := m.Geom.W * m.Geom.Cox * m.VSat
	return id * limit / sum, wi*wi*gm + wl*wl*dlimit, wi * wi * gds
}
