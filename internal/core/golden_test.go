// Golden-conformance suite: committed renderings of the cheap
// experiments (testdata/golden/*.tbl) pin the exact bytes every
// execution style must produce, and the style matrix proves the
// serial reference evaluator, the in-process pool, the batched kernel
// (EvalPointsBatch), the shard-merged coordinator, and a
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
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/runner"
	"repro/internal/shard"
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

// execPeer is an in-process worker: leases evaluate through the real
// shard.Exec path (grid rebuild, bounds normalization, batched
// kernel), exactly like a remote biodegd would.
type execPeer struct{ name string }

func (p execPeer) Name() string { return p.name }
func (p execPeer) Exec(ctx context.Context, req *shard.Request) (*shard.Result, error) {
	return shard.Exec(ctx, req)
}

// styleGrid is one conformance subject: a grid plus its sweep entry,
// whose output must agree across evaluators.
type styleGrid struct {
	kind                          string
	maxStages, minDepth, maxDepth int
	// run calls the kind's sweep entry over eval (nil = in process).
	run func(ctx context.Context, tech *core.Tech, eval core.Evaluator) (any, error)
}

var styleGrids = []styleGrid{
	{
		kind: core.GridALUDepth, maxStages: 30,
		run: func(ctx context.Context, tech *core.Tech, eval core.Evaluator) (any, error) {
			return core.ALUDepthSweep(ctx, tech, 30, true, 0, eval)
		},
	},
	{
		kind: core.GridWidth,
		run: func(ctx context.Context, tech *core.Tech, eval core.Evaluator) (any, error) {
			return core.WidthSweep(ctx, tech, eval)
		},
	},
	{
		kind: core.GridCoreDepth, minDepth: 9, maxDepth: 11,
		run: func(ctx context.Context, tech *core.Tech, eval core.Evaluator) (any, error) {
			return core.CoreDepthSweep(ctx, tech, 9, 11, true, eval)
		},
	},
}

// twoWorkers is a coordinator over two in-process exec peers, with
// leases small enough that every grid spans several of them.
func twoWorkers() *shard.Coordinator {
	return shard.New(shard.Options{Batch: 5, HedgeAfter: -1}, execPeer{"w1"}, execPeer{"w2"})
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

// TestGoldenExecutionStyles is the conformance matrix: for each sweep
// grid, the serial reference evaluator, the batched kernel, and the
// shard-merged coordinator must return identical point sets, and the
// sweep entry must assemble the same bytes in process (nil evaluator)
// as over each of them.
func TestGoldenExecutionStyles(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	ctx := context.Background()
	tech := core.SiliconTech()
	for _, sg := range styleGrids {
		t.Run(sg.kind, func(t *testing.T) {
			g, err := core.SweepGrid(ctx, sg.kind, tech, sg.maxStages, sg.minDepth, sg.maxDepth)
			if err != nil {
				t.Fatal(err)
			}
			indices := make([]int, g.N)
			for i := range indices {
				indices[i] = i
			}

			// Point level: serial vs batched vs shard-merged.
			serial, err := core.EvalLocal(ctx, g, indices)
			if err != nil {
				t.Fatal(err)
			}
			batched, err := core.EvalPointsBatch(ctx, g, indices)
			if err != nil {
				t.Fatal(err)
			}
			coord := twoWorkers()
			merged, err := coord.Evaluate(ctx, g, indices)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(serial, batched) {
				t.Errorf("batched kernel diverged from serial reference")
			}
			if !reflect.DeepEqual(serial, merged) {
				t.Errorf("shard-merged evaluation diverged from serial reference")
			}

			// Assembly level: the in-process sweep and the sweep over
			// each evaluator marshal to the same bytes.
			local, err := sg.run(ctx, tech, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := mustJSON(t, local)
			for _, style := range []struct {
				name string
				eval core.Evaluator
			}{
				{"serial", core.EvalLocal},
				{"batched", core.EvalPointsBatch},
				{"sharded", coord.Evaluate},
			} {
				got, err := sg.run(ctx, tech, style.eval)
				if err != nil {
					t.Fatalf("%s assembly: %v", style.name, err)
				}
				if !bytes.Equal(mustJSON(t, got), want) {
					t.Errorf("%s assembly bytes diverged from the in-process sweep", style.name)
				}
			}
		})
	}
}

// TestGoldenPartialResultsStyles drives the partial-results posture
// through the coordinator: under the same seeded fault injection, each
// sweep kind annotates the same failed points with the same labels
// whether it evaluates in process or over two shard workers.
func TestGoldenPartialResultsStyles(t *testing.T) {
	if testing.Short() {
		t.Skip("design-space sweeps are expensive")
	}
	tech := core.SiliconTech()
	spec, err := fault.Parse("seed=13,rate=0.3,kinds=error")
	if err != nil {
		t.Fatal(err)
	}
	ctx := config.WithContext(context.Background(), config.Config{Workers: 4, PartialResults: true})
	ctx = fault.WithInjector(ctx, fault.New(spec))
	for _, sg := range styleGrids {
		t.Run(sg.kind, func(t *testing.T) {
			local, err := sg.run(ctx, tech, nil)
			if err != nil {
				t.Fatalf("in-process partial sweep aborted: %v", err)
			}
			want := mustJSON(t, local)
			if !bytes.Contains(want, []byte(fault.ErrInjected.Error())) {
				t.Fatal("rate=0.3 annotated no point")
			}
			sharded, err := sg.run(ctx, tech, twoWorkers().Evaluate)
			if err != nil {
				t.Fatalf("sharded partial sweep aborted: %v", err)
			}
			if got := mustJSON(t, sharded); !bytes.Equal(got, want) {
				t.Errorf("sharded partial sweep diverged from the in-process one\n got %s\nwant %s", got, want)
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
	cold, err := core.ALUDepthSweep(base, tech, 12, true, 0, nil)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "journal.bdj")
	meta := checkpoint.Meta{Tool: "test", Label: "golden"}
	jnl, _, err := checkpoint.Open(context.Background(), path, meta)
	if err != nil {
		t.Fatal(err)
	}
	first, err := core.ALUDepthSweep(runner.WithCheckpoint(base, jnl), tech, 12, true, 0, nil)
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
	resumed, err := core.ALUDepthSweep(runner.WithCheckpoint(base, jnl2), tech, 12, true, 0, nil)
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
