package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the report modes read.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (the default
// "exclusive" method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// lastResult parses the last JSON result line of a run's standard output.
func lastResult(out []byte) (*output, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); strings.HasPrefix(line, "{") {
			last = line
		}
	}
	if last == "" {
		return nil, fmt.Errorf("no result line")
	}
	var o output
	if err := json.Unmarshal([]byte(last), &o); err != nil {
		return nil, err
	}
	return &o, nil
}

// steadyMain runs one workload with seeds 1..runs and reports each
// end-to-end metric's median, quartiles and spread; a metric whose spread
// exceeds its bound is flagged unresolved.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("perfbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	runs := fs.Int("runs", 5, "runs, seeds 1..runs")
	seconds := fs.Int("seconds", 10, "measured time per run")
	specPath := fs.String("bench", "BENCHMARK.json", "benchmark description holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := findWorkload(*name); err != nil || *runs < 2 {
		fmt.Fprintln(os.Stderr, "perfbench steady: need a known --workload and --runs >= 2")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench steady:", err)
		return 1
	}
	values := map[string][]float64{}
	var names []string
	failedShare := map[float64]bool{}
	for seed := 1; seed <= *runs; seed++ {
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.Itoa(seed),
			"--seconds", strconv.Itoa(*seconds), "--trace", "0")
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: %v\n%s", seed, err, out)
			return 1
		}
		res, err := lastResult(out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench steady: seed %d: %v\n", seed, err)
			return 1
		}
		failedShare[float64(res.Failed)/float64(max(res.Attempted, 1))] = true
		for n, m := range res.Metrics {
			if _, ok := values[n]; !ok {
				names = append(names, n)
			}
			values[n] = append(values[n], m.Value)
		}
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", seed, res.Correct, res.Attempted, res.Failed)
	}
	sort.Strings(names)
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	unresolved := 0
	fmt.Printf("%-36s %14s %14s %14s %8s %8s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, n := range names {
		q1, med, q3 := quartiles(values[n])
		spread := math.NaN()
		if med != 0 {
			spread = (q3 - q1) / math.Abs(med)
		}
		bound, ok := bounds[n]
		flag := ""
		if !ok || !(spread <= bound) {
			flag = "  UNRESOLVED"
			unresolved++
		}
		fmt.Printf("%-36s %14.4f %14.4f %14.4f %8.3f %8.3f%s\n", n, q1, med, q3, spread, bound, flag)
	}
	if len(failedShare) > 1 {
		fmt.Printf("the share of failed operations differs between runs: %d distinct shares\n", len(failedShare))
		unresolved++
	}
	if unresolved > 0 {
		fmt.Printf("%d metric(s) spread wider than their bound\n", unresolved)
		return 1
	}
	return 0
}

// compareMain prints each per-layer metric of two traced outputs (parent
// and change) with its change, beside the end-to-end metric it should move.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare PARENT_TRACED_OUTPUT CHANGE_TRACED_OUTPUT")
		return 2
	}
	var res [2]*output
	for i, p := range args {
		raw, err := os.ReadFile(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			return 1
		}
		if res[i], err = lastResult(raw); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench compare: %s: %v\n", p, err)
			return 1
		}
	}
	fmt.Printf("%-36s %14s %14s %9s  %s\n", "layer metric", "parent", "change", "delta", "should move")
	for _, lm := range layerMetrics {
		a, okA := res[0].Metrics[lm.name]
		b, okB := res[1].Metrics[lm.name]
		if !okA || !okB {
			fmt.Printf("%-36s %14s %14s %9s  %s\n", lm.name, present(okA), present(okB), "", lm.moves)
			continue
		}
		delta := "n/a"
		if a.Value != 0 {
			delta = fmt.Sprintf("%+.1f%%", (b.Value-a.Value)/math.Abs(a.Value)*100)
		}
		fmt.Printf("%-36s %14.4f %14.4f %9s  %s\n", lm.name, a.Value, b.Value, delta, lm.moves)
	}
	return 0
}

func present(ok bool) string {
	if ok {
		return "present"
	}
	return "missing"
}
