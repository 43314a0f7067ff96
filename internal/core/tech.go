package core

import (
	"fmt"

	"repro/internal/cells"
	"repro/internal/liberty"
	"repro/internal/runner"
	"repro/internal/sta"
)

// Tech bundles one technology's characterized library and wire model.
type Tech struct {
	Name string
	Cell *cells.Technology
	Lib  *liberty.Library
	Wire sta.Wire
}

// techMemo caches built technologies per name, so the two technologies
// can characterize concurrently without serializing on each other.
var techMemo runner.Memo[string, *Tech]

// newTech builds (and caches) a Tech from a cells technology,
// characterizing its library on first use.
func newTech(ct *cells.Technology) *Tech {
	t, _ := techMemo.Do(ct.Name, func() (*Tech, error) {
		return &Tech{
			Name: ct.Name,
			Cell: ct,
			Lib:  cells.Library(ct),
			Wire: sta.Wire{
				ResPerM: ct.WireResPerM,
				CapPerM: ct.WireCapPerM,
				Pitch:   ct.CellPitch,
			},
		}, nil
	})
	return t
}

// OrganicTech returns the pentacene pseudo-E technology.
func OrganicTech() *Tech { return newTech(cells.Organic()) }

// SiliconTech returns the 45 nm complementary CMOS technology.
func SiliconTech() *Tech { return newTech(cells.Silicon()) }

// BothTechs returns the two technologies in reporting order
// (silicon first, as the paper's figure panels do).
func BothTechs() []*Tech { return []*Tech{SiliconTech(), OrganicTech()} }

// TechByName resolves a technology by its wire name ("" means organic,
// matching the sweep-request default). The cell library's canonical
// name ("silicon45") is accepted too: a sweep response reports that
// name, so a client posting it back gets the same technology.
func TechByName(name string) (*Tech, error) {
	switch name {
	case "organic", "":
		return OrganicTech(), nil
	case "silicon", "silicon45":
		return SiliconTech(), nil
	}
	return nil, fmt.Errorf("unknown technology %q (want organic or silicon)", name)
}

// DFF returns the technology's characterized flip-flop.
func (t *Tech) DFF() *liberty.Cell { return t.Lib.MustCell("DFF") }
