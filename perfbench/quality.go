package main

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/vec"
)

// neighbor is one search result as the server encodes it.
type neighbor struct {
	ID   int32   `json:"id"`
	Dist float64 `json:"dist"`
}

// pair is one closest-pair result as the server encodes it.
type pair struct {
	I    int32   `json:"i"`
	J    int32   `json:"j"`
	Dist float64 `json:"dist"`
}

// exactKNN returns the exact k nearest live points of every query.
// ids[i] is the id of rows[i].
func exactKNN(rows [][]float64, ids []int32, queries [][]float64, k int) ([][]neighbor, error) {
	gt, err := dataset.GroundTruth(rows, queries, k)
	if err != nil {
		return nil, err
	}
	out := make([][]neighbor, len(gt))
	for i, ns := range gt {
		out[i] = make([]neighbor, len(ns))
		for j, n := range ns {
			out[i][j] = neighbor{ID: ids[n.ID], Dist: n.Dist}
		}
	}
	return out, nil
}

// score returns the mean recall@k and the paper's overall ratio of
// answers against exact neighbours: for one query the ratio is the
// mean over ranks i of dist(o_i)/dist(o*_i), where o_i is the i-th
// returned point and o*_i the exact i-th neighbour. A rank whose exact
// distance is 0 counts as ratio 1 when the answer is also at 0 (the
// only answer that can be right there).
func score(got, truth [][]neighbor, k int) (recall, ratio float64, err error) {
	if len(got) != len(truth) || len(got) == 0 {
		return 0, 0, fmt.Errorf("scoring %d answers against %d exact lists", len(got), len(truth))
	}
	var rsum, qsum float64
	for q := range got {
		if len(truth[q]) < k {
			return 0, 0, fmt.Errorf("query %d: exact list has %d < k=%d entries", q, len(truth[q]), k)
		}
		exact := make(map[int32]bool, k)
		for _, n := range truth[q][:k] {
			exact[n.ID] = true
		}
		hits := 0
		ranks := min(len(got[q]), k)
		var ratioSum float64
		for i := 0; i < ranks; i++ {
			if exact[got[q][i].ID] {
				hits++
			}
			switch e := truth[q][i].Dist; {
			case e > 0:
				ratioSum += got[q][i].Dist / e
			case got[q][i].Dist == 0:
				ratioSum++
			default:
				ratioSum += math.Inf(1)
			}
		}
		rsum += float64(hits) / float64(k)
		if ranks > 0 {
			qsum += ratioSum / float64(ranks)
		}
	}
	n := float64(len(got))
	return rsum / n, qsum / n, nil
}

// distance is the reported-distance recomputation: the kernel and the
// accumulation order the engine uses for exact verification.
func distance(a, b []float64) float64 {
	return math.Sqrt(vec.SquaredL2Bounded(a, b, math.Inf(1)))
}

// checkNeighbors checks one search answer: exactly k results, sorted by
// (dist, id) without repeats, every id live (vecOf finds it), and every
// reported distance equal to the recomputed one.
func checkNeighbors(q []float64, res []neighbor, k int, vecOf func(int32) ([]float64, bool)) error {
	if len(res) != k {
		return fmt.Errorf("%d results, want k=%d", len(res), k)
	}
	for i, r := range res {
		if i > 0 {
			p := res[i-1]
			if r.Dist < p.Dist || (r.Dist == p.Dist && r.ID <= p.ID) {
				return fmt.Errorf("results %d and %d out of (dist, id) order: (%v,%d) then (%v,%d)", i-1, i, p.Dist, p.ID, r.Dist, r.ID)
			}
		}
		v, ok := vecOf(r.ID)
		if !ok {
			return fmt.Errorf("result %d has id %d, which is not live", i, r.ID)
		}
		if d := distance(q, v); d != r.Dist {
			return fmt.Errorf("result %d (id %d) reports distance %v, recomputed %v", i, r.ID, r.Dist, d)
		}
	}
	return nil
}

// checkPairs checks one closest-pair answer the same way: k pairs
// sorted by (dist, i, j), i < j, ids live, distances recomputed.
func checkPairs(ps []pair, k int, vecOf func(int32) ([]float64, bool)) error {
	if len(ps) != k {
		return fmt.Errorf("%d pairs, want k=%d", len(ps), k)
	}
	for x, p := range ps {
		if p.I >= p.J {
			return fmt.Errorf("pair %d is (%d,%d), want i < j", x, p.I, p.J)
		}
		if x > 0 {
			q := ps[x-1]
			if p.Dist < q.Dist || (p.Dist == q.Dist && (p.I < q.I || (p.I == q.I && p.J <= q.J))) {
				return fmt.Errorf("pairs %d and %d out of (dist, i, j) order", x-1, x)
			}
		}
		a, okA := vecOf(p.I)
		b, okB := vecOf(p.J)
		if !okA || !okB {
			return fmt.Errorf("pair %d (%d,%d) names an id that is not live", x, p.I, p.J)
		}
		if d := distance(a, b); d != p.Dist {
			return fmt.Errorf("pair %d (%d,%d) reports distance %v, recomputed %v", x, p.I, p.J, p.Dist, d)
		}
	}
	return nil
}
