package liberty

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text serialization is a minimal line-oriented liberty-like format
// so characterized libraries can be cached on disk (characterization
// costs seconds per technology). The format is versioned; readers reject
// mismatched versions so stale caches regenerate.
const formatVersion = 4

// Write serializes the library.
func Write(w io.Writer, lib *Library) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "libertyv %d\n", formatVersion)
	fmt.Fprintf(bw, "library %s vdd %g vss %g\n", lib.Name, lib.VDD, lib.VSS)
	writeLUT := func(tag string, l *LUT) {
		fmt.Fprintf(bw, "lut %s %d %d\n", tag, len(l.Slews), len(l.Loads))
		fmt.Fprintln(bw, floats(l.Slews))
		fmt.Fprintln(bw, floats(l.Loads))
		for _, row := range l.Value {
			fmt.Fprintln(bw, floats(row))
		}
	}
	for _, name := range lib.Names() {
		c := lib.Cells[name]
		fmt.Fprintf(bw, "cell %s inputs %s output %s area %g cap %g transistors %d function %s\n",
			c.Name, strings.Join(c.Inputs, ","), c.Output, c.Area, c.InputCap, c.Transistors, c.Function)
		fmt.Fprintf(bw, "leak %g %g\n", c.LeakLow, c.LeakHigh)
		fmt.Fprintf(bw, "energy %g\n", c.SwitchEnergy)
		if c.Sequential {
			fmt.Fprintf(bw, "seq %g %g %g\n", c.ClkToQ, c.Setup, c.Hold)
		}
		for _, pin := range c.Inputs {
			a := c.Arcs[pin]
			if a == nil {
				continue
			}
			fmt.Fprintf(bw, "arc %s\n", pin)
			writeLUT("dr", a.DelayRise)
			writeLUT("df", a.DelayFall)
			writeLUT("sr", a.SlewRise)
			writeLUT("sf", a.SlewFall)
		}
		fmt.Fprintln(bw, "endcell")
	}
	fmt.Fprintln(bw, "end")
	return bw.Flush()
}

func floats(v []float64) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', 17, 64)
	}
	return strings.Join(parts, " ")
}

type reader struct {
	sc   *bufio.Scanner
	line int
}

func (r *reader) next() (string, error) {
	for r.sc.Scan() {
		r.line++
		s := strings.TrimSpace(r.sc.Text())
		if s != "" {
			return s, nil
		}
	}
	if err := r.sc.Err(); err != nil {
		return "", err
	}
	return "", io.EOF
}

func (r *reader) errf(format string, args ...any) error {
	return fmt.Errorf("liberty: line %d: %s", r.line, fmt.Sprintf(format, args...))
}

func parseFloats(s string, want int) ([]float64, error) {
	fields := strings.Fields(s)
	if want >= 0 && len(fields) != want {
		return nil, fmt.Errorf("want %d values, got %d", want, len(fields))
	}
	out := make([]float64, len(fields))
	for i, f := range fields {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// Read parses a library previously produced by Write.
func Read(rd io.Reader) (*Library, error) {
	r := &reader{sc: bufio.NewScanner(rd)}
	r.sc.Buffer(make([]byte, 1<<20), 1<<20)
	line, err := r.next()
	if err != nil {
		return nil, err
	}
	var ver int
	if _, err := fmt.Sscanf(line, "libertyv %d", &ver); err != nil {
		return nil, r.errf("bad header %q", line)
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("liberty: format version %d, want %d", ver, formatVersion)
	}
	line, err = r.next()
	if err != nil {
		return nil, err
	}
	lib := &Library{Cells: map[string]*Cell{}}
	if _, err := fmt.Sscanf(line, "library %s vdd %g vss %g", &lib.Name, &lib.VDD, &lib.VSS); err != nil {
		return nil, r.errf("bad library line %q", line)
	}
	readLUT := func(tag string) (*LUT, error) {
		line, err := r.next()
		if err != nil {
			return nil, err
		}
		var gotTag string
		var ns, nl int
		if _, err := fmt.Sscanf(line, "lut %s %d %d", &gotTag, &ns, &nl); err != nil {
			return nil, r.errf("bad lut header %q", line)
		}
		if gotTag != tag {
			return nil, r.errf("lut tag %q, want %q", gotTag, tag)
		}
		l := &LUT{}
		if line, err = r.next(); err != nil {
			return nil, err
		}
		if l.Slews, err = parseFloats(line, ns); err != nil {
			return nil, r.errf("slews: %v", err)
		}
		if line, err = r.next(); err != nil {
			return nil, err
		}
		if l.Loads, err = parseFloats(line, nl); err != nil {
			return nil, r.errf("loads: %v", err)
		}
		for i := 0; i < ns; i++ {
			if line, err = r.next(); err != nil {
				return nil, err
			}
			row, err := parseFloats(line, nl)
			if err != nil {
				return nil, r.errf("row: %v", err)
			}
			l.Value = append(l.Value, row)
		}
		return l, nil
	}
	for {
		line, err := r.next()
		if err != nil {
			return nil, r.errf("unexpected EOF")
		}
		if line == "end" {
			return lib, nil
		}
		if !strings.HasPrefix(line, "cell ") {
			return nil, r.errf("expected cell, got %q", line)
		}
		c := &Cell{Arcs: map[string]*Arc{}}
		var inputs string
		if _, err := fmt.Sscanf(line, "cell %s inputs %s output %s area %g cap %g transistors %d",
			&c.Name, &inputs, &c.Output, &c.Area, &c.InputCap, &c.Transistors); err != nil {
			return nil, r.errf("bad cell line %q: %v", line, err)
		}
		if i := strings.Index(line, " function "); i >= 0 {
			c.Function = line[i+len(" function "):]
		}
		c.Inputs = strings.Split(inputs, ",")
		if inputs == "" {
			c.Inputs = nil
		}
		for {
			line, err := r.next()
			if err != nil {
				return nil, r.errf("unexpected EOF in cell %s", c.Name)
			}
			if line == "endcell" {
				break
			}
			switch {
			case strings.HasPrefix(line, "leak "):
				if _, err := fmt.Sscanf(line, "leak %g %g", &c.LeakLow, &c.LeakHigh); err != nil {
					return nil, r.errf("bad leak %q", line)
				}
			case strings.HasPrefix(line, "energy "):
				if _, err := fmt.Sscanf(line, "energy %g", &c.SwitchEnergy); err != nil {
					return nil, r.errf("bad energy %q", line)
				}
			case strings.HasPrefix(line, "seq "):
				c.Sequential = true
				if _, err := fmt.Sscanf(line, "seq %g %g %g", &c.ClkToQ, &c.Setup, &c.Hold); err != nil {
					return nil, r.errf("bad seq %q", line)
				}
			case strings.HasPrefix(line, "arc "):
				pin := strings.TrimSpace(line[4:])
				a := &Arc{From: pin}
				if a.DelayRise, err = readLUT("dr"); err != nil {
					return nil, err
				}
				if a.DelayFall, err = readLUT("df"); err != nil {
					return nil, err
				}
				if a.SlewRise, err = readLUT("sr"); err != nil {
					return nil, err
				}
				if a.SlewFall, err = readLUT("sf"); err != nil {
					return nil, err
				}
				c.Arcs[pin] = a
			default:
				return nil, r.errf("unexpected %q in cell %s", line, c.Name)
			}
		}
		lib.Cells[c.Name] = c
	}
}
