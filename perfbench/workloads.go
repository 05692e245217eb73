package main

import (
	"repro/internal/dataset"
)

// workload is one traffic mix over one generated dataset. Every
// workload runs the same phases (see bench.run), so every end-to-end
// metric is measured on every workload; what differs is the data shape
// and the offered load.
type workload struct {
	name string
	spec func(seed int64) (dataset.Spec, error)
	// k is the search k.
	k int
	// rate is the open-loop arrival rate in requests per second: about
	// a quarter of the closed-loop capacity measured on the reference
	// host, so the latencies are mostly service time, not queueing.
	// It is a constant of the benchmark, never derived from the code
	// under test, so a parent and a change see the same offered load.
	rate float64
	// writeRate is the number of insert-then-delete pairs per second of
	// the write slice: a fixed count, a little under what the reference
	// host completes in that time, so a run always replays as many WAL
	// records on recovery.
	writeRate float64
	// pool is the number of distinct search queries, cycled in order.
	pool int
	// pairsPoints is the size of the closest-pair engine, a prefix of
	// the workload's data: the exact n² join that scores pairs_recall
	// takes many seconds over 10k–20k points.
	pairsPoints int
	// builds is how many times set-up builds the engine; setup_s is the
	// median.
	builds int
	// reopens is how many times recovery reopens the durable state;
	// recovery_s is the median.
	reopens int
}

const (
	// shards is the engine shard count of every workload.
	shards = 4
	// pairsK is the k of every /v1/pairs request.
	pairsK = 100
	// ratio is the approximation ratio c sent with every query (the
	// paper default).
	ratio = 1.5
)

// lowdimSpec is the clustered d=64 data of the low-dimensional
// workloads.
func lowdimSpec(n, clusters int) func(seed int64) (dataset.Spec, error) {
	return func(seed int64) (dataset.Spec, error) {
		return dataset.Spec{Name: "lowdim", N: n, D: 64, Clusters: clusters, SubspaceDim: 8, RCTarget: 2.2, Seed: seed}, nil
	}
}

// trevi10k is the Trevi stand-in (d=4096) cut to 10k points.
func trevi10k(seed int64) (dataset.Spec, error) {
	s, err := dataset.SpecByName("Trevi", 0.1, 10000)
	s.Seed = seed
	return s, err
}

var workloads = []workload{
	{name: "knn-lowdim", spec: lowdimSpec(20000, 20), k: 50, rate: 100, writeRate: 700, pool: 256, pairsPoints: 4000, builds: 7, reopens: 7},
	// Building or reopening 10k × 4096 costs about 3 s, so each runs
	// three times.
	{name: "knn-highdim", spec: trevi10k, k: 10, rate: 40, writeRate: 140, pool: 96, pairsPoints: 2000, builds: 3, reopens: 3},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
