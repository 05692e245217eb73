package main

import (
	"math"
	"testing"

	"repro/internal/lscan"
)

func TestTailRankLeavesTenSamplesAbove(t *testing.T) {
	for _, tc := range []struct {
		n        int
		rank     int
		pct      float64
		reported bool
	}{
		{n: 19, reported: false},
		{n: 20, rank: 10, pct: 50, reported: true},
		{n: 100, rank: 90, pct: 90, reported: true},
		{n: 500, rank: 490, pct: 98, reported: true},
		{n: 1000, rank: 990, pct: 99, reported: true},
		{n: 5000, rank: 4950, pct: 99, reported: true},
	} {
		rank, pct, ok := tailRank(tc.n, 99)
		if ok != tc.reported || rank != tc.rank || pct != tc.pct {
			t.Errorf("tailRank(%d, 99) = (%d, %v, %v), want (%d, %v, %v)", tc.n, rank, pct, ok, tc.rank, tc.pct, tc.reported)
		}
	}
	for n := 2 * minBeyond; n <= 3000; n++ {
		rank, _, _ := tailRank(n, 99)
		if n-rank < minBeyond {
			t.Fatalf("n=%d: rank %d leaves %d samples above it", n, rank, n-rank)
		}
		if rank < int(math.Ceil(0.99*float64(n)))-1 && n-rank > minBeyond {
			t.Fatalf("n=%d: rank %d is not the highest rank with %d samples above", n, rank, minBeyond)
		}
	}
}

func TestSummarizeNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[len(v)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	got, err := summarize(v, 99)
	if err != nil {
		t.Fatal(err)
	}
	if got.n != 100 || got.p50 != 50 || got.pct != 90 || got.pctValue != 90 {
		t.Fatalf("summarize(1..100) = %+v, want n=100 p50=50 and p90=90", got)
	}
	if _, err := summarize(v[:19], 99); err == nil {
		t.Fatal("19 samples must be too few for a tail percentile")
	}
}

// The scorer's exact neighbours must agree with a full linear scan,
// and its recall and ratio with a hand computation.
func TestScoreAgainstLinearScan(t *testing.T) {
	data := [][]float64{{0, 0}, {1, 0}, {2, 0}, {4, 0}, {8, 0}}
	ids := []int32{0, 1, 2, 3, 4}
	q := []float64{0.9, 0}
	scan, err := lscan.New(data, lscan.Config{Fraction: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := scan.KNN(q, 2)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := exactKNN(data, ids, [][]float64{q}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if truth[0][i].ID != want[i].ID || math.Abs(truth[0][i].Dist-want[i].Dist) > 1e-12 {
			t.Fatalf("exact rank %d = %+v, linear scan says %+v", i, truth[0][i], want[i])
		}
	}
	// Exact: id 1 at 0.1, id 0 at 0.9. The answer keeps id 1 and
	// returns id 2 (at 1.1) in place of id 0: recall 1/2, ratio
	// (0.1/0.1 + 1.1/0.9) / 2 = 10/9.
	got := [][]neighbor{{{ID: 1, Dist: distance(q, data[1])}, {ID: 2, Dist: distance(q, data[2])}}}
	recall, ratio, err := score(got, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	if recall != 0.5 || math.Abs(ratio-10.0/9) > 1e-12 {
		t.Fatalf("score = recall %v ratio %v, want 0.5 and %v", recall, ratio, 10.0/9)
	}
}

func TestCheckNeighborsRejectsBadAnswers(t *testing.T) {
	data := [][]float64{{0}, {1}, {3}}
	q := []float64{0.25}
	live := func(id int32) ([]float64, bool) {
		if id == 2 {
			return nil, false // deleted
		}
		return data[id], true
	}
	good := []neighbor{{0, distance(q, data[0])}, {1, distance(q, data[1])}}
	if err := checkNeighbors(q, good, 2, live); err != nil {
		t.Fatalf("good answer rejected: %v", err)
	}
	for name, bad := range map[string][]neighbor{
		"short":      good[:1],
		"unsorted":   {good[1], good[0]},
		"dead id":    {good[0], {2, distance(q, data[2])}},
		"wrong dist": {good[0], {1, math.Nextafter(good[1].Dist, 2)}},
	} {
		if err := checkNeighbors(q, bad, 2, live); err == nil {
			t.Errorf("%s answer accepted", name)
		}
	}
}
