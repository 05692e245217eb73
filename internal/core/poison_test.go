package core

import (
	"math"
	"strings"
	"testing"

	"repro/internal/metric"
	"repro/internal/wal"
)

// poisonPoints are 16-d vectors no index may admit: every coordinate
// is finite but the norm overflows, or a coordinate is itself
// non-finite.
func poisonPoints() map[string][]float64 {
	fill := func(v float64) []float64 {
		p := make([]float64, 16)
		for i := range p {
			p[i] = v
		}
		return p
	}
	nan := fill(1)
	nan[5] = math.NaN()
	return map[string][]float64{
		"all 1e308": fill(1e308),
		"all +Inf":  fill(math.Inf(1)),
		"one NaN":   nan,
	}
}

// TestInsertRejectsPoisonPoints: a plain index or engine answers a
// poison insert with an error and stays unchanged and usable: the
// rejection does not advance the engine's round-robin shard choice.
func TestInsertRejectsPoisonPoints(t *testing.T) {
	ix, err := Build(clusteredData(60, 16, 3, 5), durableConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range poisonPoints() {
		if _, err := ix.Insert(p); err == nil {
			t.Fatalf("Index.Insert(%s) succeeded", name)
		}
	}
	if id, err := ix.Insert(make([]float64, 16)); err != nil || id != 60 || ix.Len() != 61 {
		t.Fatalf("Index insert after rejections: id %d, err %v, Len %d", id, err, ix.Len())
	}
	for _, shards := range []int{1, 2} {
		e, err := BuildEngine(clusteredData(60, 16, 3, 5), durableConfig(shards))
		if err != nil {
			t.Fatal(err)
		}
		for name, p := range poisonPoints() {
			if _, err := e.Insert(p); err == nil {
				t.Fatalf("shards=%d: Insert(%s) succeeded", shards, name)
			}
		}
		if e.Len() != 60 {
			t.Fatalf("shards=%d: Len = %d after rejected inserts, want 60", shards, e.Len())
		}
		if gid, err := e.Insert(make([]float64, 16)); err != nil || gid != 60 {
			t.Fatalf("shards=%d: insert after rejections: id %d, err %v", shards, gid, err)
		}
	}
}

// TestDurableInsertRejectsPoisonBeforeLogging: on a durable engine a
// poison insert fails before the WAL append, so the log holds only the
// valid insert and OpenDurable recovers. Jaccard engines get the same
// guarantee for malformed token sets.
func TestDurableInsertRejectsPoisonBeforeLogging(t *testing.T) {
	vecEngine, err := BuildEngine(clusteredData(60, 16, 3, 5), durableConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	setEngine, err := BuildSetsEngine(metricTestSets(20, 3, 20, 37), Config{Metric: metric.Jaccard, Seed: 37, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		e      *Engine
		poison map[string][]float64
		valid  []float64
	}{
		{"l2", vecEngine, poisonPoints(), make([]float64, 16)},
		{"jaccard", setEngine, map[string][]float64{
			"empty set":      {},
			"negative token": {3, -1},
			"fraction":       {0.5},
			"NaN token":      {math.NaN()},
		}, []float64{1, 2, 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := tc.e.EnableDurability(wal.DirFS(dir), wal.SyncPolicy{}); err != nil {
				t.Fatal(err)
			}
			for name, p := range tc.poison {
				if _, err := tc.e.Insert(p); err == nil {
					t.Fatalf("durable Insert(%s) succeeded", name)
				}
			}
			gid, err := tc.e.Insert(tc.valid)
			if err != nil || gid != 60 {
				t.Fatalf("valid insert: id %d, err %v", gid, err)
			}
			if err := tc.e.CloseDurable(); err != nil {
				t.Fatal(err)
			}
			e2, err := OpenDurable(wal.DirFS(dir), wal.SyncPolicy{})
			if err != nil {
				t.Fatalf("OpenDurable after rejected inserts: %v", err)
			}
			defer e2.CloseDurable()
			if st, _ := e2.DurabilityStats(); st.ReplayRecords != 1 {
				t.Fatalf("WAL replayed %d records, want only the valid insert", st.ReplayRecords)
			}
			if e2.Len() != 61 || !e2.IsLive(gid) {
				t.Fatalf("recovered Len %d, live(%d)=%v", e2.Len(), gid, e2.IsLive(gid))
			}
		})
	}
}

// TestBuildRejectsPoisonRowByIndex: Build and BuildEngine refuse a
// poison row up front and name it in the caller's numbering.
func TestBuildRejectsPoisonRowByIndex(t *testing.T) {
	for name, p := range poisonPoints() {
		for _, shards := range []int{1, 4} {
			data := clusteredData(40, 16, 2, 9)
			data[22] = p
			_, err := BuildEngine(data, Config{Seed: 1, Shards: shards})
			if err == nil || !strings.Contains(err.Error(), "row 22:") {
				t.Fatalf("%s, shards=%d: BuildEngine error %v, want one naming row 22", name, shards, err)
			}
		}
		data := clusteredData(40, 16, 2, 9)
		data[3] = p
		if _, err := Build(data, Config{Seed: 1}); err == nil || !strings.Contains(err.Error(), "row 3:") {
			t.Fatalf("%s: Build error %v, want one naming row 3", name, err)
		}
	}
}
