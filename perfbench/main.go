// Command perfbench is the repository's serving benchmark. It builds a
// sharded PM-LSH engine from a seeded synthetic dataset, serves it with
// internal/server on a loopback port inside this process, drives one
// workload against it over HTTP, checks every answer, and prints every
// metric by name and unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	go run . --workload knn-lowdim --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is traced and the metrics are the per-layer ones, from a
// layer-by-layer replay of recorded requests (see README.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same data, queries and operations")
	seconds := flag.Int("seconds", 10, "measuring time of the run, split across its phases")
	trace := flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	b, err := newBench(w, *seed, float64(*seconds), *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer b.cleanup()
	if err := b.run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	metrics := b.e2e
	if b.tr != nil {
		metrics = b.layer
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]metricValue{}
	for _, n := range names {
		m := metrics[n]
		fmt.Printf("metric %-28s %16.6f %s\n", n, m.Value, m.Unit)
		out[n] = m
	}
	for _, f := range b.failures {
		fmt.Println("CHECK FAILED:", f)
	}
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{len(b.failures) == 0, b.attempted, b.failed, out}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
