package pmtree

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/lsh"
	"repro/internal/store"
	"repro/internal/vec"
)

// leafSlot is one leaf position in depth-first order: the entry's id
// and the store row it references.
type leafSlot struct{ id, row int32 }

// leafSlots lists every leaf entry of t in depth-first leaf order.
func leafSlots(t *Tree) []leafSlot {
	var out []leafSlot
	var rec func(n *node)
	rec = func(n *node) {
		if n.leaf {
			for _, e := range n.entries {
				out = append(out, leafSlot{e.id, e.row})
			}
			return
		}
		for i := range n.routing {
			rec(n.routing[i].child)
		}
	}
	rec(t.root)
	return out
}

// requireLeafOrdered checks the store layout invariant: walking the
// leaves depth-first visits rows 0..n−1 in sequence, and every entry's
// row holds the input point its id names (pointOf).
func requireLeafOrdered(tb testing.TB, label string, tr *Tree, pointOf func(id int32) []float64) {
	tb.Helper()
	slots := leafSlots(tr)
	if len(slots) != tr.points.Len() {
		tb.Fatalf("%s: %d leaf entries over a store of %d rows", label, len(slots), tr.points.Len())
	}
	for pos, sl := range slots {
		if sl.row != int32(pos) {
			tb.Fatalf("%s: leaf position %d (id %d) references row %d", label, pos, sl.id, sl.row)
		}
		if !slices.Equal(tr.points.Row(int(sl.row)), pointOf(sl.id)) {
			tb.Fatalf("%s: row %d does not hold the point of id %d", label, sl.row, sl.id)
		}
	}
}

// TestBulkLoadLeafOrdersStore pins the layout bulkLoad promises: the
// point store is permuted into depth-first leaf order, ids keep naming
// the caller's rows, the caller's store is left as it was, and a
// WriteTo/Read round trip — the second half of every engine shard —
// reproduces the same (id, row) pair at every leaf position.
func TestBulkLoadLeafOrdersStore(t *testing.T) {
	const n, dim = 1500, 6
	data := randData(n, dim, 77)
	customIDs := make([]int32, n)
	for i := range customIDs {
		customIDs[i] = int32(5*(n-i) + 3) // unrelated to the row order
	}
	for _, tc := range []struct {
		name string
		ids  []int32
	}{{"row ids", nil}, {"custom ids", customIDs}} {
		t.Run(tc.name, func(t *testing.T) {
			rowOfID := make(map[int32]int, n)
			for i := 0; i < n; i++ {
				id := int32(i)
				if tc.ids != nil {
					id = tc.ids[i]
				}
				rowOfID[id] = i
			}
			pointOf := func(id int32) []float64 { return data[rowOfID[id]] }

			s, err := store.FromRows(data)
			if err != nil {
				t.Fatal(err)
			}
			before := slices.Clone(s.Flat())
			built, err := BuildFromStore(s, tc.ids, Config{NumPivots: 4, Capacity: 8, PivotSeed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(s.Flat(), before) {
				t.Fatal("BuildFromStore changed the caller's store")
			}
			if built.points == s {
				t.Fatal("BuildFromStore kept the caller's store")
			}
			requireLeafOrdered(t, "built", built, pointOf)

			var buf bytes.Buffer
			if _, err := built.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			requireLeafOrdered(t, "round trip", loaded, pointOf)
			if a, b := leafSlots(built), leafSlots(loaded); !slices.Equal(a, b) {
				t.Fatal("built tree and its round trip differ in (id, row) at some leaf position")
			}
		})
	}
}

// BenchmarkRangeEnumeratorExpand times the projected-space walk alone:
// per op one Reset plus one Expand at a fixed final radius, over four
// 5k-point m=15 trees in rotation — the shards of a 4-shard engine over
// 20k clustered d=64 points, whose working set exceeds one core's L2.
// The radius is the 20% quantile of query-to-point projected
// distances, so a walk visits most of a tree, as the engine's final
// round does. dist/op counts the walk's metric evaluations, the
// engine's projected distance computations.
func BenchmarkRangeEnumeratorExpand(b *testing.B) {
	const (
		shards  = 4
		m       = 15
		queries = 64
	)
	ds, err := dataset.Generate(dataset.Spec{Name: "lowdim", N: 20000, D: 64, Clusters: 20, SubspaceDim: 8, RCTarget: 2.2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	proj, err := lsh.NewProjection(m, 64, 7)
	if err != nil {
		b.Fatal(err)
	}
	ts := make([]*Tree, shards)
	var rows0 [][]float64
	for s := range ts {
		var rows [][]float64
		for i := s; i < len(ds.Points); i += shards {
			rows = append(rows, proj.Project(ds.Points[i]))
		}
		if ts[s], err = Build(rows, nil, Config{NumPivots: 5, PivotSeed: 8}); err != nil {
			b.Fatal(err)
		}
		if s == 0 {
			rows0 = rows
		}
	}
	qs := proj.ProjectAll(ds.Queries(queries, 2))
	var dists []float64
	for _, q := range qs {
		for i := 0; i < len(rows0); i += 10 {
			dists = append(dists, vec.L2(q, rows0[i]))
		}
	}
	slices.Sort(dists)
	radius := dists[len(dists)/5]

	var e RangeEnumerator
	emitted := 0
	emit := func(int32, float64) { emitted++ }
	var dist int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Reset(ts[i%shards], qs[(i/shards)%queries]); err != nil {
			b.Fatal(err)
		}
		e.Expand(radius, emit)
		dist += e.DistComps()
	}
	b.StopTimer()
	b.ReportMetric(float64(dist)/float64(b.N), "dist/op")
	b.ReportMetric(float64(emitted)/float64(b.N), "emit/op")
}
