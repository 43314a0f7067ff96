package spice

import (
	"fmt"

	"repro/internal/device"
)

// Node identifies a circuit node. Ground is node 0.
type Node int

// Ground is the reference node.
const Ground Node = 0

// Polarity selects the MOSFET channel type. The device models are
// n-normalized; for PMOS the simulator mirrors terminal voltages.
type Polarity int

// Channel polarities.
const (
	N Polarity = iota
	P
)

func (p Polarity) String() string {
	if p == P {
		return "P"
	}
	return "N"
}

// Stimulus is a time-dependent source value. DC analyses evaluate it at
// t = 0 (or at the sweep override).
type Stimulus interface {
	At(t float64) float64
}

// DC is a constant stimulus.
type DC float64

// At implements Stimulus.
func (d DC) At(float64) float64 { return float64(d) }

// Ramp rises linearly from V0 to V1 between T0 and T1 and holds outside.
type Ramp struct {
	V0, V1 float64
	T0, T1 float64
}

// At implements Stimulus.
func (r Ramp) At(t float64) float64 {
	switch {
	case t <= r.T0:
		return r.V0
	case t >= r.T1:
		return r.V1
	default:
		return r.V0 + (r.V1-r.V0)*(t-r.T0)/(r.T1-r.T0)
	}
}

// Pulse is a single pulse with linear edges, starting at Delay.
type Pulse struct {
	V0, V1            float64
	Delay             float64
	Rise, Width, Fall float64
}

// At implements Stimulus.
func (p Pulse) At(t float64) float64 {
	t -= p.Delay
	switch {
	case t <= 0:
		return p.V0
	case t < p.Rise:
		return p.V0 + (p.V1-p.V0)*t/p.Rise
	case t < p.Rise+p.Width:
		return p.V1
	case t < p.Rise+p.Width+p.Fall:
		return p.V1 + (p.V0-p.V1)*(t-p.Rise-p.Width)/p.Fall
	default:
		return p.V0
	}
}

type resistor struct {
	name string
	a, b Node
	g    float64 // conductance
}

type capacitor struct {
	name string
	a, b Node
	c    float64
	// Transient companion state.
	vPrev float64
	iPrev float64
}

type vsource struct {
	name   string
	a, b   Node // Va - Vb = stim(t)
	stim   Stimulus
	branch int // index of the branch-current unknown
}

type isource struct {
	name string
	a, b Node // current flows a -> b through the source
	stim Stimulus
}

type mosfet struct {
	name    string
	d, g, s Node
	pol     Polarity
	model   device.Model
	// Lumped linear parasitics derived from geometry: Cgs and Cgd.
	cgs, cgd capacitor
}

// Circuit is a flat transistor-level netlist.
type Circuit struct {
	numNodes int
	names    map[string]Node
	res      []*resistor
	caps     []*capacitor
	vsrc     []*vsource
	isrc     []*isource
	mos      []*mosfet

	// Options.
	Gmin    float64 // conductance from every node to ground (default 1e-12)
	MaxIter int     // Newton iteration limit per solve (default 300)
	VTol    float64 // absolute voltage convergence tolerance (default 1e-6)
	MaxStep float64 // per-iteration voltage damping limit (default 0.5 V)

	// Newton workspace, sized to the unknowns of the last solve.
	jac [][]float64
	rhs []float64

	stats Stats
}

// Stats counts the solver work done on a Circuit. A Circuit is used by
// one goroutine at a time, so the counters are plain integers.
type Stats struct {
	NewtonIters    int // Newton iterations over all solves
	GminStepping   int // DC solves that fell back to gmin stepping
	SourceStepping int // DC solves that fell back to source stepping
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.NewtonIters += o.NewtonIters
	s.GminStepping += o.GminStepping
	s.SourceStepping += o.SourceStepping
}

// Stats returns the solver counters accumulated since NewCircuit.
func (c *Circuit) Stats() Stats { return c.stats }

// NewCircuit returns an empty circuit with default solver options.
func NewCircuit() *Circuit {
	return &Circuit{
		numNodes: 1, // ground
		names:    map[string]Node{"0": Ground, "gnd": Ground},
		Gmin:     1e-12,
		MaxIter:  300,
		VTol:     1e-6,
		MaxStep:  0.5,
	}
}

// Node returns the node with the given name, creating it if needed.
func (c *Circuit) Node(name string) Node {
	if n, ok := c.names[name]; ok {
		return n
	}
	n := Node(c.numNodes)
	c.numNodes++
	c.names[name] = n
	return n
}

// NodeName returns the name of node n, or its index if unnamed.
func (c *Circuit) NodeName(n Node) string {
	for name, nd := range c.names {
		if nd == n && name != "0" {
			return name
		}
	}
	return fmt.Sprintf("n%d", int(n))
}

// R adds a resistor of r ohms between a and b.
func (c *Circuit) R(name string, a, b Node, r float64) {
	if r <= 0 {
		panic("spice: resistor must have positive resistance")
	}
	c.res = append(c.res, &resistor{name: name, a: a, b: b, g: 1 / r})
}

// C adds a capacitor of f farads between a and b.
func (c *Circuit) C(name string, a, b Node, f float64) {
	c.caps = append(c.caps, &capacitor{name: name, a: a, b: b, c: f})
}

// V adds a voltage source enforcing Va - Vb = stim(t).
func (c *Circuit) V(name string, a, b Node, stim Stimulus) {
	c.vsrc = append(c.vsrc, &vsource{name: name, a: a, b: b, stim: stim})
}

// I adds a current source pushing stim(t) amperes from a to b.
func (c *Circuit) I(name string, a, b Node, stim Stimulus) {
	c.isrc = append(c.isrc, &isource{name: name, a: a, b: b, stim: stim})
}

// MOS adds a MOSFET with the given polarity and compact model. Lumped
// linear gate capacitances (half the gate cap each to source and drain,
// using the model's geometry if it exposes one) are attached
// automatically when geom is non-zero.
func (c *Circuit) MOS(name string, d, g, s Node, pol Polarity, model device.Model, geom device.Geometry) {
	m := &mosfet{name: name, d: d, g: g, s: s, pol: pol, model: model}
	if cg := geom.GateCap(); cg > 0 {
		m.cgs = capacitor{name: name + ".cgs", a: g, b: s, c: 0.5 * cg}
		m.cgd = capacitor{name: name + ".cgd", a: g, b: d, c: 0.5 * cg}
		c.caps = append(c.caps, &m.cgs, &m.cgd)
	}
	c.mos = append(c.mos, m)
}

// FindV returns the voltage source with the given name.
func (c *Circuit) FindV(name string) (Stimulus, bool) {
	for _, v := range c.vsrc {
		if v.name == name {
			return v.stim, true
		}
	}
	return nil, false
}

// SetV replaces the stimulus of the named voltage source.
func (c *Circuit) SetV(name string, stim Stimulus) error {
	for _, v := range c.vsrc {
		if v.name == name {
			v.stim = stim
			return nil
		}
	}
	return fmt.Errorf("spice: no voltage source %q", name)
}

// unknowns returns the MNA system size: node voltages (minus ground) plus
// one branch current per voltage source, and assigns branch indices.
func (c *Circuit) unknowns() int {
	n := c.numNodes - 1
	for i, v := range c.vsrc {
		v.branch = n + i
	}
	return n + len(c.vsrc)
}

// index maps a node to its unknown index, or -1 for ground.
func index(n Node) int { return int(n) - 1 }
