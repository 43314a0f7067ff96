package uarch

import (
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/workload"
)

// record runs w functionally into a Recording.
func record(t *testing.T, w *workload.Workload) *Recording {
	t.Helper()
	m, err := w.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Record(m, p, w.MaxInstr)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	if err := w.Verify(m); err != nil {
		t.Fatal(err)
	}
	return rec
}

// replayGrid spans FE 1-6 and BE 3-7, the perfect and two real
// instruction caches, the smallest predictor and data cache, and deep
// front-end, issue and execute mappings.
func replayGrid() []Config {
	var cfgs []Config
	for fe := 1; fe <= 6; fe++ {
		c := DefaultConfig()
		c.FrontWidth = fe
		c.BackWidth = 3 + (fe-1)%5
		c.ICacheKB = []int{0, 4, 16}[fe%3]
		if fe%2 == 0 {
			c.PredBits, c.CacheKB = 6, 1
		}
		if fe >= 4 {
			c.FrontStages += 20
			c.IssueStages, c.ExecStages = 3, 3
		}
		cfgs = append(cfgs, c)
	}
	return cfgs
}

// TestReplayMatchesMachine checks that replaying a kernel's Recording
// yields the functional machine's trace record for record, and the
// same Stats under every configuration of the grid.
func TestReplayMatchesMachine(t *testing.T) {
	for _, w := range workload.All() {
		rec := record(t, w)
		m, err := w.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		src, n := rec.Replay(), 0
		if err := m.Run(w.MaxInstr, func(want isa.Trace) {
			got, ok := src.Next()
			if !ok || got != want {
				t.Fatalf("%s: replay record %d = %+v (ok %v), machine gave %+v", w.Name, n, got, ok, want)
			}
			n++
		}); err != nil {
			t.Fatal(err)
		}
		if _, ok := src.Next(); ok || uint64(n) != rec.Instrs() {
			t.Fatalf("%s: replay outlasts the machine's %d instructions (recorded %d)", w.Name, n, rec.Instrs())
		}
		for _, cfg := range replayGrid() {
			m, err := w.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			want := Run(&MachineSource{M: m, Max: w.MaxInstr}, cfg)
			if got := Run(rec.Replay(), cfg); got != want {
				t.Errorf("%s %+v:\nreplay  %+v\nmachine %+v", w.Name, cfg, got, want)
			}
		}
	}
}

// TestRecordRejectsImageEscapes checks the two conditions under which
// the code image would not describe what ran.
func TestRecordRejectsImageEscapes(t *testing.T) {
	for _, c := range []struct{ name, asm, want string }{
		{"store into code", "li t0, 7\nsw t0, 4(zero)\nhalt", "inside the code image"},
		{"byte store into code", "li t0, 7\nsb t0, 9(zero)\nhalt", "inside the code image"},
		{"jump past the image", "j 64\nhalt", "left the code image"},
		{"indirect jump past the image", "li t0, 400\njalr zero, 0(t0)\nhalt", "left the code image"},
	} {
		p, err := isa.Assemble(c.asm)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		m := isa.NewMachine(4096)
		if err := m.Load(p); err != nil {
			t.Fatal(err)
		}
		if _, err := Record(m, p, 100); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Record error %v, want one saying %q", c.name, err, c.want)
		}
	}
	// A store just past the image is ordinary data.
	p, err := isa.Assemble("li t0, 7\nsw t0, 12(zero)\nhalt")
	if err != nil {
		t.Fatal(err)
	}
	m := isa.NewMachine(4096)
	if err := m.Load(p); err != nil {
		t.Fatal(err)
	}
	rec, err := Record(m, p, 100)
	if err != nil {
		t.Fatalf("store after the image: %v", err)
	}
	if rec.Instrs() != 3 {
		t.Fatalf("store after the image: recorded %d instructions, want 3", rec.Instrs())
	}
}
