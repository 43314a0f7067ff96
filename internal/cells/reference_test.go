package cells

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/liberty"
	"repro/internal/obs"
)

// refTol is the relative tolerance between a fresh characterization and
// the committed reference libraries in testdata/. Rendered tables show
// four digits; this bound makes smaller LUT drift visible. Leakage and
// energy are stored with six significant digits, well inside it.
const refTol = 1e-5

// TestLibrariesMatchReference compares every LUT, leakage, energy and
// sequential-timing value of both characterized libraries against
// testdata/<tech>.lib. It reuses the memoized libraries, so it adds no
// characterization of its own.
func TestLibrariesMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is expensive")
	}
	for _, tech := range []*Technology{Organic(), Silicon()} {
		f, err := os.Open(filepath.Join("testdata", tech.Name+".lib"))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := liberty.Read(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: reading reference: %v", tech.Name, err)
		}
		got := Library(tech)
		worst := 0.0
		check := func(what string, g, r float64) {
			d := math.Abs(g - r)
			if d == 0 {
				return
			}
			rel := d / math.Max(math.Abs(g), math.Abs(r))
			worst = math.Max(worst, rel)
			if rel > refTol {
				t.Errorf("%s %s: got %.9g, reference %.9g (rel %.2g)", tech.Name, what, g, r, rel)
			}
		}
		if len(got.Cells) != len(ref.Cells) {
			t.Fatalf("%s: %d cells, reference has %d", tech.Name, len(got.Cells), len(ref.Cells))
		}
		for _, name := range ref.Names() {
			rc, gc := ref.Cells[name], got.Cells[name]
			if gc == nil {
				t.Fatalf("%s: cell %s missing", tech.Name, name)
			}
			check(name+" leak_low", gc.LeakLow, rc.LeakLow)
			check(name+" leak_high", gc.LeakHigh, rc.LeakHigh)
			check(name+" energy", gc.SwitchEnergy, rc.SwitchEnergy)
			check(name+" clk_to_q", gc.ClkToQ, rc.ClkToQ)
			check(name+" setup", gc.Setup, rc.Setup)
			check(name+" hold", gc.Hold, rc.Hold)
			if len(gc.Arcs) != len(rc.Arcs) {
				t.Fatalf("%s %s: %d arcs, reference has %d", tech.Name, name, len(gc.Arcs), len(rc.Arcs))
			}
			for pin, ra := range rc.Arcs {
				ga := gc.Arcs[pin]
				if ga == nil {
					t.Fatalf("%s %s: arc %s missing", tech.Name, name, pin)
				}
				luts := []struct {
					tag    string
					g, ref *liberty.LUT
				}{
					{"delay_rise", ga.DelayRise, ra.DelayRise}, {"delay_fall", ga.DelayFall, ra.DelayFall},
					{"slew_rise", ga.SlewRise, ra.SlewRise}, {"slew_fall", ga.SlewFall, ra.SlewFall},
				}
				for _, l := range luts {
					where := name + "/" + pin + " " + l.tag
					if len(l.g.Value) != len(l.ref.Value) || len(l.g.Loads) != len(l.ref.Loads) {
						t.Fatalf("%s %s: grid shape differs from reference", tech.Name, where)
					}
					for i := range l.ref.Slews {
						check(where+" slew axis", l.g.Slews[i], l.ref.Slews[i])
					}
					for j := range l.ref.Loads {
						check(where+" load axis", l.g.Loads[j], l.ref.Loads[j])
					}
					for i, row := range l.ref.Value {
						for j, r := range row {
							check(where+" value", l.g.Value[i][j], r)
						}
					}
				}
			}
		}
		t.Logf("%s: largest relative drift from reference %.2g", tech.Name, worst)
	}
}

// TestCharacterizeSpanSolverCounters checks that each cell's
// "characterize" span carries its summed solver counters.
func TestCharacterizeSpanSolverCounters(t *testing.T) {
	tr := obs.NewTracer()
	ctx := obs.ContextWithTracer(context.Background(), tr)
	cfg := CharConfig{SlewMults: []float64{1}, LoadMults: []float64{1}, Steps: 200}
	if _, err := CharacterizeCtx(ctx, Silicon(), cfg); err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, s := range tr.Collect().Spans {
		if s.Name != "characterize" {
			continue
		}
		seen++
		attrs := map[string]string{}
		for _, a := range s.Attrs {
			attrs[a.Key] = a.Value
		}
		for _, k := range []string{"newton_iters", "gmin_stepping", "source_stepping"} {
			if _, err := strconv.Atoi(attrs[k]); err != nil {
				t.Errorf("cell %s: attribute %s = %q", attrs["cell"], k, attrs[k])
			}
		}
		if n, _ := strconv.Atoi(attrs["newton_iters"]); n <= 0 {
			t.Errorf("cell %s: newton_iters = %d, want > 0", attrs["cell"], n)
		}
	}
	if seen != len(Silicon().Protos) {
		t.Fatalf("%d characterize spans, want %d", seen, len(Silicon().Protos))
	}
}
