// Command perfbench is the repository's benchmark. It runs one workload
// (circuit-cold, arch-warm or ipc-sampled) for a fixed time budget, each
// repetition in a fresh child process because every cache that matters
// (characterized libraries, technologies, the ALU and IPC memos) is
// process-wide, checks the outputs, and prints the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Run it through run.sh from the repository root, which builds this
// package first:
//
//	bash perfbench/run.sh --workload arch-warm --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and the layer map.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) > 0 && args[0] == "child" {
		return childMain(args[1:])
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if workloadByName(*workload) == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s)\n", *workload, workloadNames())
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	res, err := orchestrate(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
