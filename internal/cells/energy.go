package cells

import (
	"fmt"

	"repro/internal/spice"
)

// measureSwitchEnergy measures the dynamic energy per output transition
// of a cell at a nominal operating point (input slew = TimeScale, load =
// 2x input cap): the supply energy of a full input pulse minus the
// static-state energy over the same window, halved (one rise + one
// fall). Static subtraction uses the same solver and step so systematic
// integration error cancels — important for the organic cells, whose
// ratioed static power dwarfs CV^2. The solver counters are added to st.
func measureSwitchEnergy(t *Technology, p *Proto, leakLow, leakHigh float64, st *spice.Stats) (float64, error) {
	pin := p.Inputs[0]
	others, err := nonControlling(p, pin)
	if err != nil {
		return 0, err
	}
	window := 40 * t.TimeScale
	rise := t.TimeScale
	delay := 0.25 * window
	width := 0.35 * window

	c := t.newCircuit()
	pins := map[string]spice.Node{}
	vdd := c.Node("vdd")
	c.V("VDD", vdd, spice.Ground, spice.DC(t.VDD))
	pins["vdd"] = vdd
	vss := spice.Node(spice.Ground)
	rails := map[string]float64{"VDD": t.VDD}
	if t.VSS != 0 {
		vss = c.Node("vss")
		c.V("VSS", vss, spice.Ground, spice.DC(t.VSS))
		rails["VSS"] = t.VSS
	}
	pins["vss"] = vss
	level := func(b bool) float64 {
		if b {
			return t.VDD
		}
		return 0
	}
	for _, in := range p.Inputs {
		n := c.Node("in_" + in)
		pins[in] = n
		if in == pin {
			c.V("VIN", n, spice.Ground, spice.Pulse{
				V0: 0, V1: t.VDD, Delay: delay, Rise: rise, Width: width, Fall: rise,
			})
		} else {
			c.V("V_"+in, n, spice.Ground, spice.DC(level(others[in])))
		}
	}
	out := c.Node("out")
	pins[p.Output] = out
	p.Build(c, pins)
	c.C("CL", out, spice.Ground, 2*p.InputCap)
	tr, err := c.Transient(window, window/2500, out)
	st.Add(c.Stats())
	if err != nil {
		return 0, fmt.Errorf("energy transient: %w", err)
	}
	total := tr.SupplyEnergy(rails, 0, window)
	// Static energy of the two input states over their dwell times. The
	// DC leakage numbers correspond to all-low / all-high inputs; with
	// non-controlling companions this is the closest available baseline.
	tHigh := width + rise
	tLow := window - tHigh
	static := leakLow*tLow + leakHigh*tHigh
	e := (total - static) / 2
	if e < 0 {
		e = 0
	}
	return e, nil
}
