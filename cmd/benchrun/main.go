// Command benchrun executes one workload (or all) on a configured core
// and prints IPC and pipeline statistics. With "all", every benchmark
// runs even if an earlier one fails; failures are reported per
// benchmark and the exit status is non-zero if any failed.
//
// Usage:
//
//	benchrun [-fe N] [-be N] [-json out.json] [common flags] [benchmark|all]
//
// With -json, each benchmark is additionally measured under
// testing.Benchmark and a machine-readable report (schema
// "biodeg-bench/v1": ns/op, allocs/op, bytes/op, go version, platform,
// GOMAXPROCS, vcs revision — see EXPERIMENTS.md) is written to the
// named file, so perf trajectories can be compared across commits.
//
// With -compare baseline.json, the freshly measured report (requires
// -json) is diffed against the named baseline and benchrun exits 3 if
// any benchmark's ns/op grew by more than -threshold (default 10%),
// went missing, or newly fails. With -against current.json the two
// existing reports are diffed without running anything — the CI
// regression gate. allocs/op deltas are printed for context but do not
// gate (ns/op already bounds them; they stay exact across hardware).
//
// Common flags (each defaults from the matching BIODEG_* environment
// variable; explicit flags win): -workers, -metrics, -libcache,
// -trace, -jsonl, -manifest, -pprof, -log-format, -log-level.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/biodeg"
	"repro/internal/cli"
)

func main() {
	opts := cli.Register(flag.CommandLine)
	fe := flag.Int("fe", 1, "front-end width (fetch/dispatch/retire)")
	be := flag.Int("be", 3, "back-end execution pipes (1 mem + 1 control + be-2 ALU)")
	depthF := flag.Int("front-stages", 4, "fetch-to-dispatch pipeline stages")
	jsonOut := flag.String("json", "", "write a machine-readable benchmark report (schema biodeg-bench/v1) to this file")
	compare := flag.String("compare", "", "baseline biodeg-bench/v1 report to diff against (exit 3 on regression)")
	against := flag.String("against", "", "with -compare: diff this existing report instead of running benchmarks")
	thresholdS := flag.String("threshold", "10%", "ns/op growth beyond which -compare reports a regression")
	flag.Parse()
	threshold, err := parseThreshold(*thresholdS)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(2)
	}
	if *against != "" && *compare == "" {
		fmt.Fprintln(os.Stderr, "benchrun: -against requires -compare")
		os.Exit(2)
	}
	if *compare != "" && *against == "" && *jsonOut == "" {
		fmt.Fprintln(os.Stderr, "benchrun: -compare needs either -against (diff two existing reports) or -json (measure, then diff)")
		os.Exit(2)
	}
	if *compare != "" && *against != "" {
		// Pure report diff: no simulation, no session.
		os.Exit(compareFiles(*compare, *against, threshold))
	}
	which := flag.Arg(0)
	if which == "" {
		which = "all"
	}
	valid := biodeg.Benchmarks()
	benches := valid
	if which != "all" {
		found := false
		for _, b := range valid {
			if b == which {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "benchrun: unknown benchmark %q (valid: %s, or \"all\")\n",
				which, strings.Join(valid, ", "))
			os.Exit(2)
		}
		benches = []string{which}
	}
	run, ctx, err := opts.Start("benchrun")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	session := biodeg.New()
	cfg := biodeg.DefaultCore()
	cfg.FrontWidth = *fe
	cfg.BackWidth = *be
	cfg.FrontStages = *depthF
	failed := 0
	if *jsonOut != "" {
		failed = benchJSON(ctx, session, cfg, benches, *jsonOut)
	} else {
		fmt.Printf("%-10s %8s %10s %8s %9s %9s\n", "bench", "IPC", "instrs", "cycles", "MPKI", "missrate")
		for _, b := range benches {
			st, err := session.SimulateIPC(ctx, b, cfg)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchrun: %s: %v\n", b, err)
				failed++
				continue
			}
			fmt.Printf("%-10s %8.3f %10d %8d %9.2f %9.3f\n", b, st.IPC, st.Instrs, st.Cycles, st.MPKI, st.MissRate)
		}
	}
	if err := run.Finish(); err != nil {
		fmt.Fprintf(os.Stderr, "benchrun: %v\n", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchrun: %d of %d benchmarks failed\n", failed, len(benches))
		os.Exit(1)
	}
	if *compare != "" {
		os.Exit(compareFiles(*compare, *jsonOut, threshold))
	}
}
