package core

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/metric"
)

// hugeKs are ks no allocation may be sized by: 1<<62 overflows a
// makeslice of 16-byte results, and math.MaxInt64 also overflows the
// βn+k verification budget.
var hugeKs = []int{1 << 62, math.MaxInt64}

// TestHugeKReturnsEveryLivePoint: a k above the live count asks for
// every live point. An Index, a 4-shard Engine and its batch path
// answer it exactly as they answer k = Live — same results, same
// statistics — instead of panicking inside a shard goroutine.
func TestHugeKReturnsEveryLivePoint(t *testing.T) {
	ctx := context.Background()
	data := clusteredData(300, 16, 3, 5)
	q := data[7]
	ix, err := Build(data, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := BuildEngine(data, Config{Seed: 1, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int32{3, 100, 201} {
		if err := ix.Delete(id); err != nil {
			t.Fatal(err)
		}
		if err := e.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	const live = 297
	type search func(k int) ([]Result, QueryStats, error)
	for _, tc := range []struct {
		name string
		run  search
	}{
		{"index", func(k int) ([]Result, QueryStats, error) {
			var st QueryStats
			res, err := ix.Search(ctx, q, k, SearchOptions{Stats: &st})
			return res, st, err
		}},
		{"engine", func(k int) ([]Result, QueryStats, error) {
			var st QueryStats
			res, err := e.Search(ctx, q, k, SearchOptions{Stats: &st})
			return res, st, err
		}},
		{"engine batch", func(k int) ([]Result, QueryStats, error) {
			sts := make([]QueryStats, 2)
			res, err := e.SearchBatch(ctx, [][]float64{data[1], q}, k, SearchOptions{BatchStats: sts})
			if err != nil {
				return nil, QueryStats{}, err
			}
			return res[1], sts[1], nil
		}},
	} {
		want, wantSt, err := tc.run(live)
		if err != nil {
			t.Fatalf("%s k=Live: %v", tc.name, err)
		}
		if len(want) != live {
			t.Fatalf("%s k=Live: %d results, want every live point (%d)", tc.name, len(want), live)
		}
		for _, k := range hugeKs {
			got, st, err := tc.run(k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", tc.name, k, err)
			}
			if !reflect.DeepEqual(got, want) || st != wantSt {
				t.Fatalf("%s k=%d: %d results, stats %+v; want the k=Live answer (%d results, stats %+v)",
					tc.name, k, len(got), st, len(want), wantSt)
			}
		}
	}
}

// TestHugeKJaccard: the MinHash backend sizes its top lists by the
// candidate count, not by k, for single queries and closest pairs on
// one and two shards.
func TestHugeKJaccard(t *testing.T) {
	ctx := context.Background()
	sets := metricTestSets(20, 3, 20, 37)
	q := make([]float64, len(sets[4]))
	for i, tok := range sets[4] {
		q[i] = float64(tok)
	}
	for _, shards := range []int{1, 2} {
		e, err := BuildSetsEngine(sets, Config{Metric: metric.Jaccard, Seed: 37, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		n := len(sets)
		want, err := e.Search(ctx, q, n, SearchOptions{})
		if err != nil || len(want) == 0 {
			t.Fatalf("shards=%d: k=n search: %d results, err %v", shards, len(want), err)
		}
		wantPairs, err := e.SearchPairs(ctx, n*(n-1)/2, SearchOptions{})
		if err != nil || len(wantPairs) == 0 {
			t.Fatalf("shards=%d: k=n(n-1)/2 pairs: %d pairs, err %v", shards, len(wantPairs), err)
		}
		for _, k := range hugeKs {
			got, err := e.Search(ctx, q, k, SearchOptions{})
			if err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d k=%d: search %v, err %v; want %v", shards, k, got, err, want)
			}
			pairs, err := e.SearchPairs(ctx, k, SearchOptions{})
			if err != nil || !reflect.DeepEqual(pairs, wantPairs) {
				t.Fatalf("shards=%d k=%d: pairs %v, err %v; want %v", shards, k, pairs, err, wantPairs)
			}
		}
	}
}
