// Golden-conformance suite: committed renderings of the cheap
// experiments (testdata/golden/*.tbl) pin the exact bytes every
// execution style must produce, and the style matrix proves a serial
// (one-worker) sweep, the same sweep on a pool of four workers, and a
// checkpoint-resumed run agree byte for byte. The suite is the safety
// net under hot-path kernel changes: an optimization that perturbs
// float evaluation order or point enumeration fails here, not in a
// downstream diff.
//
// Regenerate the golden files after an intentional output change with
//
//	go test ./internal/core/ -run TestGolden -update
package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/*.tbl from this run")

// goldenIDs are the experiments whose rendered tables are pinned.
// Device/cell analyses (fig3-fig9) are cheap and fully analytic; fig12
// exercises the synthesis + STA + pipelining stack end to end.
var goldenIDs = []string{"fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig12"}

// expensiveGolden marks the IDs skipped under -short (they need
// characterized libraries or full depth sweeps).
var expensiveGolden = map[string]bool{"fig9": true, "fig12": true}

// renderAll concatenates an experiment's rendered tables — the exact
// bytes replicate prints and the digest manifest hashes.
func renderAll(tables []*core.Table) []byte {
	var b bytes.Buffer
	for _, t := range tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	return b.Bytes()
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".tbl")
}

func TestGoldenTables(t *testing.T) {
	for _, id := range goldenIDs {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && expensiveGolden[id] {
				t.Skip("expensive golden experiment")
			}
			e := core.ExperimentByID(id)
			if e == nil {
				t.Fatalf("experiment %q not registered", id)
			}
			tables, err := e.Run(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			got := renderAll(tables)
			path := goldenPath(id)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s rendering diverged from golden file %s\n--- got ---\n%s\n--- want ---\n%s",
					id, path, got, want)
			}
		})
	}
}

// styleSweep is one conformance subject: a sweep kind and its entry
// point, whose output must not depend on how its points are scheduled.
type styleSweep struct {
	kind string
	run  func(ctx context.Context, tech *core.Tech) (any, error)
}

var styleSweeps = []styleSweep{
	{"alu-depth", func(ctx context.Context, tech *core.Tech) (any, error) {
		return core.ALUDepthSweep(ctx, tech, 30, true, 0)
	}},
	{"width", func(ctx context.Context, tech *core.Tech) (any, error) {
		return core.WidthSweep(ctx, tech)
	}},
	{"core-depth", func(ctx context.Context, tech *core.Tech) (any, error) {
		return core.CoreDepthSweep(ctx, tech, 9, 11, true)
	}},
}

// mustJSON is the byte-for-byte witness: two results that marshal to
// the same JSON would render, journal, and ship over the wire
// identically.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenExecutionStyles is the conformance matrix: each sweep kind
// run on one worker (the serial reference) and on a pool of four
// marshals to identical bytes.
func TestGoldenExecutionStyles(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := core.SiliconTech()
	serial := config.WithContext(context.Background(), config.Config{Workers: 1})
	pooled := config.WithContext(context.Background(), config.Config{Workers: 4})
	for _, ss := range styleSweeps {
		t.Run(ss.kind, func(t *testing.T) {
			want, err := ss.run(serial, tech)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ss.run(pooled, tech)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(mustJSON(t, got), mustJSON(t, want)) {
				t.Errorf("4-worker sweep bytes diverged from the serial reference")
			}
		})
	}
}

// TestGoldenPartialResultsStyles drives the partial-results posture
// through both schedules: under the same seeded fault injection, each
// sweep kind annotates the same failed points with the same labels on
// one worker and on four, and at least one point is annotated.
func TestGoldenPartialResultsStyles(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := core.SiliconTech()
	spec, err := fault.Parse("seed=13,rate=0.3,kinds=error")
	if err != nil {
		t.Fatal(err)
	}
	chaos := func(workers int) context.Context {
		ctx := config.WithContext(context.Background(), config.Config{Workers: workers, PartialResults: true})
		return fault.WithInjector(ctx, fault.New(spec))
	}
	for _, ss := range styleSweeps {
		t.Run(ss.kind, func(t *testing.T) {
			serial, err := ss.run(chaos(1), tech)
			if err != nil {
				t.Fatalf("serial partial sweep aborted: %v", err)
			}
			want := mustJSON(t, serial)
			if !bytes.Contains(want, []byte(fault.ErrInjected.Error())) {
				t.Fatal("rate=0.3 annotated no point")
			}
			pooled, err := ss.run(chaos(4), tech)
			if err != nil {
				t.Fatalf("4-worker partial sweep aborted: %v", err)
			}
			if got := mustJSON(t, pooled); !bytes.Equal(got, want) {
				t.Errorf("4-worker partial sweep diverged from the serial one\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestGoldenCheckpointResume closes the matrix: a journaled sweep
// replayed through a fresh journal handle (the crash-resume shape)
// produces the same bytes as a cold run.
func TestGoldenCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := core.SiliconTech()
	base := config.WithContext(context.Background(), config.Config{Workers: 4})
	cold, err := core.ALUDepthSweep(base, tech, 12, true, 0)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.bdj")
	meta := checkpoint.Meta{Tool: "test", Label: "golden"}
	jnl, _, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.ALUDepthSweep(runner.WithCheckpoint(base, jnl), tech, 12, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	jnl.Close()

	jnl2, rec, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	defer jnl2.Close()
	if rec.Records != 12 {
		t.Fatalf("recovered %d journal records, want 12", rec.Records)
	}
	resumed, err := core.ALUDepthSweep(runner.WithCheckpoint(base, jnl2), tech, 12, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string]any{"journaled": first, "resumed": resumed} {
		if !bytes.Equal(mustJSON(t, got), mustJSON(t, cold)) {
			t.Errorf("%s sweep bytes diverged from the cold run", name)
		}
	}
	if st := jnl2.Stats(); st.Replayed < 12 {
		t.Errorf("resumed run replayed %d points, want all 12", st.Replayed)
	}
}
