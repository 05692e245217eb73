package pmtree

import (
	"fmt"
	"sort"

	"repro/internal/store"
)

// Bulk loading. Inserting points one at a time builds a poor tree: the
// early tree shape is arbitrary, splits scatter near points across
// nodes, and leaves end up half-full with covering radii an order of
// magnitude above the local point spacing — which cripples every
// query's ball/ring pruning, most of all the closest-pair self-join
// (whose cost is driven by the number of leaf PAIRS with overlapping
// regions). Bulk loading instead clusters the points top-down and
// assembles the tree bottom-up:
//
//  1. the point set is recursively bisected: two far-apart pivot rows
//     are chosen (a double scan: the row farthest from an arbitrary
//     row, then the row farthest from that) and every row joins the
//     nearer pivot's side, until a partition fits in one leaf. A
//     median split replaces any partition that comes out more
//     imbalanced than 1:3, which bounds the recursion depth;
//  2. each leaf picks the minimax row of its partition as routing
//     object (the covering radius is as small as the partition
//     allows);
//  3. each level of routing entries is grouped into runs of capacity —
//     consecutive entries share a recursion branch and therefore lie
//     close — and the group's minimax center routes the parent.
//
// Radii, parent distances and hyper-rings are computed exactly from the
// covered points, so bulk-built regions are as tight as the clustering
// allows. Later Inserts use the normal descend-and-split path.
//
// Cost: O(n log n) metric evaluations for the bisection plus
// O(n·capacity) for leaf packing — comparable to one insertion pass.
//
// Layout: the bisection partitions one row array in place, so every
// leaf's rows end up adjacent and the leaves follow in depth-first
// order. The point store is finally permuted into that order (one copy
// of n×dim floats), which makes a leaf scan read one contiguous run of
// rows instead of capacity rows scattered over the whole store — the
// same layout Read produces, since it appends rows as leaves decode.

// bulkLoad builds the tree over all rows of t.points. ids[row] is
// stored with each point (nil = row index). Must be called on a fresh
// tree (count == 0). On return t.points is a new, leaf-ordered store;
// the previous one is no longer referenced.
func (t *Tree) bulkLoad(ids []int32) {
	n := t.points.Len()
	rows := make([]int32, n)
	for i := range rows {
		rows[i] = int32(i)
	}
	da := make([]float64, n) // distance-to-pivot scratch, shared down the recursion
	db := make([]float64, n)

	var level []routingEntry
	// mm carries a partition's minimax result (aligned with the current
	// ordering of rs) down the recursion so each partition's O(m²)
	// matrix is computed once, not re-derived by the refinement check
	// and again by packLeaf.
	var rec func(rs []int32, da, db []float64, mm *minimaxResult)
	packed := 0
	rec = func(rs []int32, da, db []float64, mm *minimaxResult) {
		if len(rs) > t.capacity {
			mid := t.bisect(rs, da, db, false)
			rec(rs[:mid], da[:mid], db[:mid], nil)
			rec(rs[mid:], da[mid:], db[mid:], nil)
			return
		}
		if mm == nil {
			mm = t.minimax(rs)
		}
		// Refinement: a leaf-sized chunk still splits when both halves'
		// covering radii fall under half the chunk's — the chunk
		// straddles distinct point groups, and two tight partial leaves
		// prune far better than one full loose one. Natural groups stop
		// splitting (no half reduces the radius much), so this
		// terminates, as does the radius halving itself. The probe
		// partitions a scratch copy so a rejected split leaves rs — and
		// therefore mm's index alignment — intact.
		if len(rs) >= 6 && mm.radius > 0 {
			probe := append([]int32(nil), rs...)
			pda := make([]float64, len(probe))
			pdb := make([]float64, len(probe))
			if mid := t.bisect(probe, pda, pdb, true); mid > 0 {
				mmL := t.minimax(probe[:mid])
				mmR := t.minimax(probe[mid:])
				if mmL.radius <= 0.5*mm.radius && mmR.radius <= 0.5*mm.radius {
					copy(rs, probe)
					rec(rs[:mid], da[:mid], db[:mid], mmL)
					rec(rs[mid:], da[mid:], db[mid:], mmR)
					return
				}
			}
		}
		level = append(level, t.packLeaf(rs, int32(packed), ids, mm))
		packed += len(rs)
	}
	rec(rows, da, db, nil)
	t.points = leafOrdered(t.points, rows)

	// Assemble upper levels until the entries fit one root node.
	for len(level) > t.capacity {
		next := make([]routingEntry, 0, (len(level)+t.capacity-1)/t.capacity)
		for g := 0; g < len(level); g += t.capacity {
			end := g + t.capacity
			if end > len(level) {
				end = len(level)
			}
			group := make([]routingEntry, end-g)
			copy(group, level[g:end])
			next = append(next, t.makeParent(group))
		}
		level = next
	}
	if len(level) == 1 && level[0].child.leaf {
		t.root = level[0].child
	} else {
		// Root routing entries have no parent object: parentDist 0.
		for i := range level {
			level[i].parentDist = 0
		}
		t.root = &node{leaf: false, routing: level}
	}
	t.count = n
}

// leafOrdered returns a new store whose row j is row order[j] of s.
func leafOrdered(s *store.Store, order []int32) *store.Store {
	dim := s.Dim()
	buf := make([]float64, len(order)*dim)
	for j, r := range order {
		copy(buf[j*dim:(j+1)*dim], s.Row(int(r)))
	}
	out, err := store.FromFlat(buf, dim)
	if err != nil {
		panic(fmt.Sprintf("pmtree: %v", err)) // unreachable: dim > 0, len(buf) = n·dim
	}
	return out
}

// bisect partitions rs in place around two far-apart pivot rows and
// returns the split index. In relaxed mode (leaf refinement) any
// two-sided partition is accepted, and -1 reports a degenerate one;
// otherwise imbalance beyond 1:3 falls back to a median split so the
// recursion depth stays logarithmic.
func (t *Tree) bisect(rs []int32, da, db []float64, relaxed bool) int {
	p0 := t.points.Row(int(rs[0]))
	ai, amax := 0, -1.0
	for i, r := range rs {
		if d := t.dist(p0, t.points.Row(int(r))); d > amax {
			amax, ai = d, i
		}
	}
	pa := t.points.Row(int(rs[ai]))
	bi, bmax := 0, -1.0
	for i, r := range rs {
		d := t.dist(pa, t.points.Row(int(r)))
		da[i] = d
		if d > bmax {
			bmax, bi = d, i
		}
	}
	pb := t.points.Row(int(rs[bi]))
	for i, r := range rs {
		db[i] = t.dist(pb, t.points.Row(int(r)))
	}

	// Two-pointer partition: rows nearer pivot a (ties included) left.
	i, j := 0, len(rs)-1
	for i <= j {
		if da[i] <= db[i] {
			i++
			continue
		}
		rs[i], rs[j] = rs[j], rs[i]
		da[i], da[j] = da[j], da[i]
		db[i], db[j] = db[j], db[i]
		j--
	}
	if relaxed {
		if i == 0 || i == len(rs) {
			return -1
		}
		return i
	}
	if min := len(rs) / 4; i >= min && len(rs)-i >= min {
		return i
	}
	// Degenerate or imbalanced split (duplicates, outlier pivots):
	// fall back to the median of the distance to pivot a, which halves
	// the partition and bounds the recursion depth.
	sort.Sort(&rowsByDist{rs: rs, d: da, d2: db})
	return len(rs) / 2
}

// rowsByDist sorts a row partition by pivot distance, keeping the
// scratch arrays aligned.
type rowsByDist struct {
	rs []int32
	d  []float64
	d2 []float64
}

func (s *rowsByDist) Len() int           { return len(s.rs) }
func (s *rowsByDist) Less(i, j int) bool { return s.d[i] < s.d[j] }
func (s *rowsByDist) Swap(i, j int) {
	s.rs[i], s.rs[j] = s.rs[j], s.rs[i]
	s.d[i], s.d[j] = s.d[j], s.d[i]
	s.d2[i], s.d2[j] = s.d2[j], s.d2[i]
}

// minimaxResult is one partition's pairwise distance matrix (row-major,
// aligned with the partition's ordering at computation time) and its
// minimax row: the row whose farthest partner is nearest, i.e. the
// smallest covering radius available without synthesizing a center.
type minimaxResult struct {
	dm     []float64
	best   int
	radius float64
}

// minimax computes a partition's minimaxResult (at most capacity²
// metric evaluations; symmetric halves mirrored).
func (t *Tree) minimax(rs []int32) *minimaxResult {
	m := len(rs)
	dm := make([]float64, m*m)
	for i := 0; i < m; i++ {
		pi := t.points.Row(int(rs[i]))
		for j := i + 1; j < m; j++ {
			d := t.dist(pi, t.points.Row(int(rs[j])))
			dm[i*m+j] = d
			dm[j*m+i] = d
		}
	}
	out := &minimaxResult{dm: dm, radius: -1}
	for i := 0; i < m; i++ {
		far := 0.0
		for j := 0; j < m; j++ {
			if d := dm[i*m+j]; d > far {
				far = d
			}
		}
		if out.radius < 0 || far < out.radius {
			out.best, out.radius = i, far
		}
	}
	return out
}

// packLeaf builds one leaf over a partition and returns its routing
// entry, routed by the partition's minimax row. mm must be aligned
// with the current ordering of rs. Entry i gets row base+i: its
// position once bulkLoad has permuted the store into leaf order.
func (t *Tree) packLeaf(rs []int32, base int32, ids []int32, mm *minimaxResult) routingEntry {
	m := len(rs)
	dm, best, bestRadius := mm.dm, mm.best, mm.radius

	leaf := &node{leaf: true, entries: make([]leafEntry, 0, m)}
	s := len(t.pivots)
	hr := newEmptyIntervals(s)
	// One contiguous pivot-distance block per leaf (entries subslice
	// it), so leaf scans walk sequential memory instead of chasing one
	// small allocation per entry.
	var pdAll []float64
	if s > 0 {
		pdAll = make([]float64, m*s)
	}
	for i, row := range rs {
		id := row
		if ids != nil {
			id = ids[row]
		}
		var pd []float64
		if s > 0 {
			pd = pdAll[i*s : (i+1)*s : (i+1)*s]
			p := t.points.Row(int(row))
			for k, pv := range t.pivots {
				pd[k] = t.dist(p, pv)
			}
			for k, d := range pd {
				hr[k].extend(d)
			}
		}
		leaf.entries = append(leaf.entries, leafEntry{
			row: base + int32(i), id: id, parentDist: dm[best*m+i], pivotDist: pd,
		})
	}
	center := make([]float64, t.dim)
	copy(center, t.points.Row(int(rs[best])))
	return routingEntry{center: center, radius: bestRadius, child: leaf, hr: hr}
}

// makeParent wraps a run of routing entries into one parent entry: the
// minimax child center routes the group (minimizing the covering
// radius max_j d(c, c_j) + r_j), and the rings union the children's.
func (t *Tree) makeParent(group []routingEntry) routingEntry {
	m := len(group)
	dm := make([]float64, m*m)
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			d := t.dist(group[i].center, group[j].center)
			dm[i*m+j] = d
			dm[j*m+i] = d
		}
	}
	best, bestRadius := 0, -1.0
	for i := 0; i < m; i++ {
		far := 0.0
		for j := 0; j < m; j++ {
			if r := dm[i*m+j] + group[j].radius; r > far {
				far = r
			}
		}
		if bestRadius < 0 || far < bestRadius {
			best, bestRadius = i, far
		}
	}
	hr := newEmptyIntervals(len(t.pivots))
	for i := range group {
		group[i].parentDist = dm[best*m+i]
		for k := range hr {
			hr[k].union(group[i].hr[k])
		}
	}
	center := make([]float64, t.dim)
	copy(center, group[best].center)
	return routingEntry{center: center, radius: bestRadius, child: &node{leaf: false, routing: group}, hr: hr}
}

func newEmptyIntervals(s int) []Interval {
	hr := make([]Interval, s)
	for i := range hr {
		hr[i] = emptyInterval()
	}
	return hr
}
