// Command perfbench is Salamander's end-to-end benchmark. It drives the
// program's public API in-process: difs clusters over RAM, pre-worn flash and
// durable store-backed devices, served over loopback by salnet or called
// directly. See README.md for the workloads, metrics and reference figures.
//
// Usage (from the repository root, through perfbench/run.sh):
//
//	run.sh --workload NAME --seed N --seconds S --trace 0|1
//	run.sh steady --workload NAME [--runs K] [--seconds S]
//	run.sh compare PARENT.json CHANGE.json
//
// A measuring run prints human-readable notes and, as its last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}; it exits 1 when any
// output failed its check. --trace 0 measures the end-to-end metrics, --trace 1
// the per-layer ones. steady reruns a workload K times with seeds 1..K and
// prints each end-to-end metric's median, quartiles and spread against its bound in
// BENCHMARK.json. compare takes two traced outputs and prints each layer
// metric's change beside the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of kv-mem, kv-worn, restart-rebuild), --seconds >= 1, --trace 0|1: %v\n", err)
		return 2
	}
	var rep *report
	if *trace == 1 {
		rep, err = runTraced(w, *seed, *seconds)
	} else {
		rep, err = runUntraced(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("workload %s seed %d: %d operations attempted, %d failed\n", w.name, *seed, rep.attempted, rep.failed)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	for _, v := range rep.violations {
		fmt.Println("VIOLATION:", v)
	}
	out := output{Correct: len(rep.violations) == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: rep.metrics}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
