package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pmtree"
	"repro/internal/store"
	"repro/internal/vec"
	"repro/internal/wal"
)

// A traced run records spans from the benchmark's own code only: the
// program gets no tracing. Each recorded request is replayed layer by
// layer through the packages' public functions, one layer per span.
// Replays run one request at a time, after the request they copy, so
// they see warm caches; their numbers attribute work between layers,
// they are not end-to-end latencies.

// span is one timed call. Parent is the index of the span this call
// is part of (-1 for a root); spans of one request share Req.
type span struct {
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	reqs  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) newRequest() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// record stores one span and returns its index.
func (t *tracer) record(req int64, layer string, start, end time.Time, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, Layer: layer,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Parent: parent})
	return len(t.spans) - 1
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timer measures one call and records it as a span.
type timer struct {
	t     *tracer
	req   int64
	start time.Time
}

func (t *tracer) begin(req int64) timer { return timer{t: t, req: req, start: time.Now()} }

// end records the span and returns its index and duration.
func (tm timer) end(layer string, parent int) (int, time.Duration) {
	now := time.Now()
	return tm.t.record(tm.req, layer, tm.start, now, parent), now.Sub(tm.start)
}

// stripe is one shard's replica: the rows BuildEngine routes to shard
// s (row i goes to shard i mod shards), built into a core.Index with
// the engine's configuration, which reproduces that shard exactly,
// plus an i8 screening codec over the same rows.
type stripe struct {
	ix    *core.Index
	rows  [][]float64
	codec *store.Codec
	beta  float64
}

func buildStripes(rows [][]float64, cfg core.Config) ([]stripe, error) {
	out := make([]stripe, shards)
	cfg.Shards = 0
	for s := range out {
		var part [][]float64
		for i := s; i < len(rows); i += shards {
			part = append(part, rows[i])
		}
		ix, err := core.Build(part, cfg)
		if err != nil {
			return nil, err
		}
		st, err := store.FromRows(part)
		if err != nil {
			return nil, err
		}
		st.SetQuantize(store.QuantI8)
		p, err := ix.DeriveParams(ratio)
		if err != nil {
			return nil, err
		}
		out[s] = stripe{ix: ix, rows: part, codec: st.Codec(), beta: p.Beta}
	}
	return out, nil
}

// searchTrace accumulates the per-request layer numbers of the search
// replay.
type searchTrace struct {
	core, coreSelf, serverSelf       []float64 // ms
	project                          []float64 // µs
	expand, verify, screen           []float64 // ms
	pdc, distComps, verified, rounds float64   // sums over requests
	reqBytes, respBytes              float64
	screened, rejected               float64
	n                                int
	mismatches                       int
}

// replayCount is the number of searches a traced run replays.
const replayCount = 48

// replaySearches replays searches from the query pool, one at a time:
// the HTTP round trip, core.Engine.Search, and per shard stripe
// Index.Search, Index.Project, the range walk at T()·FinalRadius,
// exact verification of the candidates the engine verifies, and the
// same verification behind the i8 screen. The walk's distance count
// and the verified count must equal the engine's own QueryStats.
func (b *bench) replaySearches() error {
	stripes, err := buildStripes(b.ds.Points, b.cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	var t searchTrace
	k := b.w.k
	type cand struct {
		id int32
		d  float64
	}
	var cands []cand
	for i := 0; i < min(replayCount, len(b.pool)); i++ {
		q := b.pool[i]
		req := b.tr.newRequest()
		tm := b.tr.begin(req)
		status, resp, err := b.main.cl.do(ctx, b.searchReq(i))
		root, httpD := tm.end("server.search", -1)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("replayed search %d: status %d, %v", i, status, err)
		}
		var r struct {
			Results []neighbor `json:"results"`
		}
		if err := json.Unmarshal(resp, &r); err != nil {
			return err
		}
		var st core.QueryStats
		tm = b.tr.begin(req)
		res, err := b.eng.Search(ctx, q, k, core.SearchOptions{C: ratio, Stats: &st})
		coreSpan, coreD := tm.end("core.search", root)
		if err != nil {
			return err
		}
		for j := range res {
			if j >= len(r.Results) || res[j].ID != r.Results[j].ID || res[j].Dist != r.Results[j].Dist {
				b.fail("replayed search %d: engine and HTTP answers differ at rank %d", i, j)
				break
			}
		}
		var shardD, projD, expD, verD, scrD time.Duration
		var dc int64
		verified := 0
		for s := range stripes {
			sp := &stripes[s]
			var sst core.QueryStats
			tm = b.tr.begin(req)
			if _, err := sp.ix.Search(ctx, q, k, core.SearchOptions{C: ratio, Stats: &sst}); err != nil {
				return err
			}
			shardSpan, d := tm.end("core.shard_search", coreSpan)
			shardD += d

			tm = b.tr.begin(req)
			qp := sp.ix.Project(q)
			_, d = tm.end("lsh.project", shardSpan)
			projD += d

			cands = cands[:0]
			tm = b.tr.begin(req)
			en, err := sp.ix.Tree().NewRangeEnumerator(qp)
			if err != nil {
				return err
			}
			en.Expand(sp.ix.T()*sst.FinalRadius, func(id int32, d float64) { cands = append(cands, cand{id, d}) })
			_, d = tm.end("pmtree.expand", shardSpan)
			expD += d
			dc += en.DistComps()
			if en.DistComps() != sst.ProjectedDistComps {
				t.mismatches++
				b.fail("replayed search %d shard %d: walk made %d distance computations, engine reports %d", i, s, en.DistComps(), sst.ProjectedDistComps)
			}

			// The engine verifies the candidates in (projected
			// distance, id) order until the βn+k budget is spent.
			slices.SortFunc(cands, func(a, b cand) int {
				if a.d != b.d {
					if a.d < b.d {
						return -1
					}
					return 1
				}
				return int(a.id - b.id)
			})
			needed := int(math.Ceil(sp.beta*float64(sp.ix.LiveLen()))) + k
			nv := min(len(cands), needed)
			verified += nv
			if nv != sst.Verified {
				t.mismatches++
				b.fail("replayed search %d shard %d: %d candidates to verify, engine verified %d", i, s, nv, sst.Verified)
			}
			tm = b.tr.begin(req)
			verifyTopK(q, sp.rows, cands[:nv], k, nil, func(c cand) int32 { return c.id })
			_, d = tm.end("vec.verify", shardSpan)
			verD += d

			tm = b.tr.begin(req)
			rej := verifyTopK(q, sp.rows, cands[:nv], k, sp.codec, func(c cand) int32 { return c.id })
			_, d = tm.end("store.screen", shardSpan)
			scrD += d
			t.screened += float64(nv)
			t.rejected += float64(rej)
		}
		if dc != st.ProjectedDistComps || verified != st.Verified {
			t.mismatches++
			b.fail("replayed search %d: replay counted %d distance computations and %d verified, engine %d and %d",
				i, dc, verified, st.ProjectedDistComps, st.Verified)
		}
		t.core = append(t.core, ms(coreD))
		t.serverSelf = append(t.serverSelf, ms(httpD-coreD))
		t.coreSelf = append(t.coreSelf, ms(shardD-projD-expD-verD))
		t.project = append(t.project, float64(projD)/float64(time.Microsecond))
		t.expand = append(t.expand, ms(expD))
		t.verify = append(t.verify, ms(verD))
		t.screen = append(t.screen, ms(scrD))
		t.pdc += float64(st.ProjectedDistComps)
		t.distComps += float64(dc)
		t.verified += float64(st.Verified)
		t.rounds += float64(st.Rounds)
		t.reqBytes += float64(len(b.bodies[i]))
		t.respBytes += float64(len(resp))
		t.n++
	}
	n := float64(t.n)
	b.setLayer("server.search_self_ms", median(t.serverSelf), "ms")
	b.setLayer("server.req_bytes", t.reqBytes/n, "bytes")
	b.setLayer("server.resp_bytes", t.respBytes/n, "bytes")
	b.setLayer("core.search_ms", median(t.core), "ms")
	b.setLayer("core.search_self_ms", median(t.coreSelf), "ms")
	b.setLayer("core.rounds", t.rounds/n, "count")
	b.setLayer("core.pdc", t.pdc/n, "count")
	b.setLayer("core.verified", t.verified/n, "count")
	b.setLayer("core.verified_per_k", t.verified/n/float64(k), "count")
	b.setLayer("lsh.project_us", median(t.project), "us")
	b.setLayer("pmtree.expand_ms", median(t.expand), "ms")
	b.setLayer("pmtree.dist_comps", t.distComps/n, "count")
	b.setLayer("vec.verify_ms", median(t.verify), "ms")
	b.setLayer("store.screen_ms", median(t.screen), "ms")
	b.setLayer("store.screen_reject_frac", t.rejected/t.screened, "frac")
	b.setLayer("replay.count_mismatches", float64(t.mismatches), "count")
	b.note("search replay: %d requests; shares of the summed shard searches: project %.1f%%, walk %.1f%%, verify %.1f%%, rest %.1f%%",
		t.n, share(t.project, 1e-3, t), share(t.expand, 1, t), share(t.verify, 1, t), share(t.coreSelf, 1, t))
	return nil
}

// share is the sum of one layer's per-request times as a percentage of
// the summed shard-search time (project + walk + verify + rest).
func share(v []float64, scale float64, t searchTrace) float64 {
	var part, total float64
	for i := range v {
		part += v[i] * scale
		total += t.project[i]*1e-3 + t.expand[i] + t.verify[i] + t.coreSelf[i]
	}
	return 100 * part / total
}

// verifyTopK runs the engine's verification loop over cands in order:
// exact squared distances abandoned against the running k-th best.
// With a codec, a candidate whose quantized lower bound already
// exceeds the k-th best is rejected without its exact distance; the
// return value is the number rejected.
func verifyTopK[C any](q []float64, rows [][]float64, cands []C, k int, codec *store.Codec, id func(C) int32) int {
	top := make([]float64, 0, k)
	bound := math.Inf(1)
	rejected := 0
	for _, c := range cands {
		row := id(c)
		if codec != nil && len(top) == k && codec.QueryLowerBound(q, int(row), bound) > bound {
			rejected++
			continue
		}
		d2 := vec.SquaredL2Bounded(q, rows[row], bound)
		if len(top) < k || d2 < bound {
			top = vec.InsertBounded(top, d2, k, func(x float64) float64 { return x })
			if len(top) == k {
				bound = top[k-1]
			}
		}
	}
	return rejected
}

// replayPairs replays /v1/pairs sweeps: the HTTP round trip,
// core.Engine.SearchPairs, and the projected-space pair stream the
// engine consumes — the merge of one pmtree.PairEnumerator per shard
// and one bipartite enumerator per shard pair — pulled for as many
// candidates as the engine enumerated, under the final cutoff the
// engine converged to (T·d_k/c, d_k the k-th answer's distance). The
// engine starts from a wider cutoff and narrows it as its top-k fills,
// so the replayed walk is a lower bound on the engine's.
func (b *bench) replayPairs(cl *client, eng *core.Engine, rows [][]float64) error {
	stripes, err := buildStripes(rows, b.cfg)
	if err != nil {
		return err
	}
	body, err := json.Marshal(map[string]any{"k": pairsK, "ratio": ratio})
	if err != nil {
		return err
	}
	ctx := context.Background()
	// One untraced sweep first, so the first timed one is not the
	// engine's first.
	if _, err := eng.SearchPairs(ctx, pairsK, core.SearchOptions{C: ratio}); err != nil {
		return err
	}
	var httpT, coreT, next []float64
	var enumerated, verified, pdc float64
	const sweeps = 5
	for i := 0; i < sweeps; i++ {
		req := b.tr.newRequest()
		tm := b.tr.begin(req)
		status, _, err := cl.do(ctx, request{kind: opPairs, body: body})
		root, httpD := tm.end("server.pairs", -1)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("replayed pairs sweep: status %d, %v", status, err)
		}
		var st core.CPStats
		tm = b.tr.begin(req)
		ps, err := eng.SearchPairs(ctx, pairsK, core.SearchOptions{C: ratio, PairStats: &st})
		coreSpan, coreD := tm.end("core.pairs", root)
		if err != nil {
			return err
		}
		if len(ps) == 0 {
			return fmt.Errorf("replayed pairs sweep %d: empty answer", i)
		}
		cutoff := stripes[0].ix.T() * ps[len(ps)-1].Dist / ratio
		tm = b.tr.begin(req)
		pullPairs(stripes, st.Enumerated, cutoff)
		_, nextD := tm.end("pmtree.pair_next", coreSpan)
		httpT = append(httpT, ms(httpD))
		coreT = append(coreT, ms(coreD))
		next = append(next, ms(nextD))
		enumerated += float64(st.Enumerated)
		verified += float64(st.Verified)
		pdc += float64(st.ProjectedDistComps)
	}
	// The HTTP sweep and the in-process one are separate calls, so the
	// self time is the difference of their medians.
	b.setLayer("server.pairs_self_ms", median(httpT)-median(coreT), "ms")
	b.setLayer("pmtree.pair_next_ms", median(next), "ms")
	b.setLayer("core.pairs_enumerated", enumerated/sweeps, "count")
	b.setLayer("core.pairs_verified", verified/sweeps, "count")
	b.setLayer("core.pairs_pdc", pdc/sweeps, "count")
	return nil
}

// pullPairs merges the per-shard and cross-shard pair enumerators,
// capped at cutoff, by projected distance and pulls up to want
// candidates; it returns how many it got.
func pullPairs(stripes []stripe, want int, cutoff float64) int {
	type source struct {
		en   *pmtree.PairEnumerator
		head pmtree.PairCandidate
		ok   bool
	}
	var srcs []*source
	for a := range stripes {
		ta := stripes[a].ix.Tree()
		srcs = append(srcs, &source{en: ta.NewPairEnumerator()})
		for c := a + 1; c < len(stripes); c++ {
			srcs = append(srcs, &source{en: ta.NewBipartitePairEnumerator(stripes[c].ix.Tree())})
		}
	}
	for _, s := range srcs {
		s.en.SetCutoff(cutoff)
		s.head, s.ok = s.en.Next()
	}
	got := 0
	for got < want {
		var best *source
		for _, s := range srcs {
			if s.ok && (best == nil || s.head.Dist < best.head.Dist) {
				best = s
			}
		}
		if best == nil {
			break
		}
		got++
		best.head, best.ok = best.en.Next()
	}
	return got
}

// replayWrites replays the logged writes in commit order on a second
// engine built from the same data and made durable the same way:
// core.Engine.Insert and Delete, each also appended to a separate WAL
// segment with wal.Writer.Append and synced with Sync, then one
// core.Engine.Compact. The HTTP span of each write is the one recorded
// when it was served.
func (b *bench) replayWrites(ops []wal.Op) error {
	eng, err := core.BuildEngine(b.ds.Points, b.cfg)
	if err != nil {
		return err
	}
	dir := filepath.Join(b.work, "replay-engine")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := eng.EnableDurability(wal.DirFS(dir), fsyncPolicy); err != nil {
		return err
	}
	defer eng.CloseDurable() // replay state; removed with the run directory
	logDir := filepath.Join(b.work, "replay-wal")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return err
	}
	// A policy that never syncs on its own, so Append and Sync time
	// separately.
	w, err := wal.CreateWriter(wal.DirFS(logDir), 1, wal.SyncPolicy{EveryN: math.MaxInt32})
	if err != nil {
		return err
	}
	defer w.Close() // replay log; removed with the run directory
	segment := filepath.Join(logDir, wal.SegmentName(1))

	// HTTP round trips of the write phase, by what they wrote.
	httpIns := map[int32]time.Duration{}
	httpDel := map[int32]time.Duration{}
	for i := range b.writes {
		s := &b.writes[i]
		if !s.ok() {
			continue
		}
		switch s.req.kind {
		case opInsert:
			var r struct {
				ID int32 `json:"id"`
			}
			if json.Unmarshal(s.resp, &r) == nil {
				httpIns[r.ID] = s.done - s.sent
			}
		case opDelete:
			httpDel[int32(s.req.ref)] = s.done - s.sent
		}
	}
	var ins, del, compact, insSelf, appendUS, syncMS []float64
	var insBytes, inserts float64
	for _, op := range ops {
		req := b.tr.newRequest()
		tm := b.tr.begin(req)
		var layer string
		switch op.Kind {
		case wal.OpInsert:
			layer = "core.insert"
			id, err := eng.Insert(op.Vec)
			if err != nil {
				return err
			}
			if id != op.ID {
				b.fail("replayed insert got id %d, the log recorded %d", id, op.ID)
			}
		case wal.OpDelete:
			layer = "core.delete"
			if err := eng.Delete(op.ID); err != nil {
				return err
			}
		case wal.OpCompact:
			layer = "core.compact"
			if err := eng.Compact(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected logged op %v", op.Kind)
		}
		_, d := tm.end(layer, -1)
		switch op.Kind {
		case wal.OpInsert:
			ins = append(ins, ms(d))
			if h, ok := httpIns[op.ID]; ok {
				insSelf = append(insSelf, ms(h-d))
			}
		case wal.OpDelete:
			del = append(del, ms(d))
		case wal.OpCompact:
			compact = append(compact, ms(d))
		}
		before, err := os.Stat(segment)
		if err != nil {
			return err
		}
		tm = b.tr.begin(req)
		if err := w.Append(op); err != nil {
			return err
		}
		_, d = tm.end("wal.append", -1)
		appendUS = append(appendUS, float64(d)/float64(time.Microsecond))
		tm = b.tr.begin(req)
		if err := w.Sync(); err != nil {
			return err
		}
		_, d = tm.end("wal.sync", -1)
		syncMS = append(syncMS, ms(d))
		if op.Kind == wal.OpInsert {
			after, err := os.Stat(segment)
			if err != nil {
				return err
			}
			insBytes += float64(after.Size() - before.Size())
			inserts++
		}
	}
	// No workload serves an explicit compaction (they would stall
	// every connection and swamp the write tails), and automatic ones
	// need 30% dead rows; so one Compact of the final state is timed.
	tm := b.tr.begin(b.tr.newRequest())
	if err := eng.Compact(); err != nil {
		return err
	}
	_, d := tm.end("core.compact", -1)
	compact = append(compact, ms(d))
	if len(ins) == 0 || len(del) == 0 {
		return fmt.Errorf("write replay saw %d inserts and %d deletes; both must occur", len(ins), len(del))
	}
	b.setLayer("core.insert_ms", median(ins), "ms")
	b.setLayer("core.delete_ms", median(del), "ms")
	b.setLayer("core.compact_ms", median(compact), "ms")
	b.setLayer("server.insert_self_ms", median(insSelf), "ms")
	b.setLayer("wal.append_us", median(appendUS), "us")
	b.setLayer("wal.sync_ms", median(syncMS), "ms")
	b.setLayer("wal.bytes_per_insert", insBytes/inserts, "bytes")
	b.note("write replay: %d logged ops (%d inserts, %d deletes, %d compactions)", len(ops), len(ins), len(del), len(compact))
	return nil
}

// traceSummary adds the driver's own numbers to the per-layer set: how
// late the traced open loop sent, and what tracing cost.
func (b *bench) traceSummary() {
	if t, err := summarize(b.late, 99); err == nil {
		b.setLayer("driver.late_p99_ms", t.pctValue, "ms")
		b.note("driver lateness: p%.2f over %d traced sends", t.pct, t.n)
	} else {
		b.fail("driver lateness: %v", err)
	}
	un, tr := median(b.overhead[0]), median(b.overhead[1])
	b.setLayer("trace.overhead_p50_ms", tr-un, "ms")
	b.note("tracing overhead: search p50 %.4f ms traced vs %.4f ms untraced (traced and untraced rounds alternate)", tr, un)
}
