package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/lscan"
	"repro/internal/server"
	"repro/internal/wal"
)

const (
	// probeSweeps is the number of /v1/pairs sweeps per round.
	probeSweeps = 3
	// pairsRecallEngines is the number of engines pairs_recall averages
	// over.
	pairsRecallEngines = 4
	// buildDir holds everything a run writes (state directories,
	// traces), relative to the checkout root.
	buildDir = ".bench_build"
)

// fsyncPolicy is the WAL sync policy of every durable engine: the
// zero value, fsync on every append, which is `pmlsh serve`'s default.
var fsyncPolicy = wal.SyncPolicy{}

// bench is one run of one workload.
type bench struct {
	w     workload
	t0    time.Time
	seed  int64
	secs  float64
	tr    *tracer // nil for an untraced run
	nproc int
	work  string // this run's private directory under buildDir
	cfg   core.Config

	ds     *dataset.Dataset
	pool   [][]float64 // search queries
	bodies [][]byte    // pre-encoded search requests, one per pool query
	// insVecs are the points inserts add, in order, generated in
	// chunks as needed.
	insVecs [][]float64
	nextIns int

	eng   *core.Engine
	walFS splitFS // the served engine's state directory
	main  *served

	// inserted maps the id of every acknowledged insert to its point;
	// deadAt records when each acknowledged delete was answered.
	inserted map[int32][]float64
	deadAt   map[int32]time.Time
	acked    []int32 // acknowledged insert ids, in answer order

	lat      map[opKind][]timedLatency // due-to-done latencies
	qps      []float64                 // closed-loop searches per second, by round
	sweeps   []sample                  // /v1/pairs sweeps
	late     []float64                 // traced open-loop send lateness, ms
	overhead [2][]float64              // search latencies of the untraced/traced rounds
	writes   []sample                  // answered writes, the write replay's HTTP spans

	e2e       map[string]metricValue
	layer     map[string]metricValue
	attempted int
	failed    int
	failures  []string
}

func newBench(w workload, seed int64, secs float64, trace bool) (*bench, error) {
	b := &bench{
		w: w, t0: time.Now(), seed: seed, secs: secs, nproc: runtime.GOMAXPROCS(0),
		cfg:      core.Config{Shards: shards, Seed: seed},
		inserted: map[int32][]float64{},
		deadAt:   map[int32]time.Time{},
		lat:      map[opKind][]timedLatency{},
		e2e:      map[string]metricValue{},
		layer:    map[string]metricValue{},
	}
	if trace {
		b.tr = newTracer()
	}
	spec, err := w.spec(seed)
	if err != nil {
		return nil, err
	}
	if b.ds, err = dataset.Generate(spec); err != nil {
		return nil, err
	}
	b.pool = b.ds.Queries(w.pool, seed+1)
	for _, q := range b.pool {
		body, err := json.Marshal(map[string]any{"q": q, "k": w.k, "ratio": ratio})
		if err != nil {
			return nil, err
		}
		b.bodies = append(b.bodies, body)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	if b.work, err = os.MkdirTemp(buildDir, "run-"); err != nil {
		return nil, err
	}
	walDir := filepath.Join(b.work, "wal")
	if err := os.Mkdir(walDir, 0o755); err != nil {
		return nil, err
	}
	b.walFS = newSplitFS(walDir)
	b.fingerprint()
	return b, nil
}

// cleanup stops what the run started and removes its state files.
func (b *bench) cleanup() {
	if b.main != nil {
		b.main.stop()
	}
	if b.eng != nil {
		_ = b.eng.CloseDurable() // the state is removed next; nothing to keep
	}
	os.RemoveAll(b.work)
}

// note prints one progress line, stamped with the time since the run
// started.
func (b *bench) note(format string, args ...any) {
	fmt.Printf("# [%6.2fs] %s\n", time.Since(b.t0).Seconds(), fmt.Sprintf(format, args...))
}

func (b *bench) fail(format string, args ...any) {
	b.failures = append(b.failures, fmt.Sprintf(format, args...))
}

func (b *bench) setE2E(name string, v float64, unit string) {
	b.e2e[name] = metricValue{Value: v, Unit: unit}
}

func (b *bench) setLayer(name string, v float64, unit string) {
	b.layer[name] = metricValue{Value: v, Unit: unit}
}

// rounds is the number of rounds a run's measuring time is cut into.
// Every round runs every load phase of the workload for 1/rounds of
// its time, so each metric is a median over samples spread across the
// whole run: on a shared host whose speed swings from second to
// second, that keeps one slow stretch from deciding a phase's result.
const rounds = 10

// run executes the workload. Set-up, ground truth, checks, recovery
// and replays come on top of the measuring time.
func (b *bench) run() error {
	// CPU time the hypervisor gave to other guests: on a shared host it
	// explains a run that is slow across the board.
	if st0, tot0, ok := cpuTimes(); ok {
		defer func() {
			if st1, tot1, ok := cpuTimes(); ok && tot1 > tot0 {
				b.note("host: %.1f%% of CPU time stolen during the run", 100*float64(st1-st0)/float64(tot1-tot0))
			}
		}()
	}
	if err := b.setup(); err != nil {
		return err
	}
	var err error
	if b.main, err = serve(b.eng, b.nproc); err != nil {
		return err
	}
	if b.tr != nil {
		if err := b.replaySearches(); err != nil {
			return err
		}
	}
	probe, pairsRows, err := b.pairsProbe()
	if err != nil {
		return err
	}
	defer probe.stop()
	pairsCl := probe.cl
	if b.tr != nil {
		if err := b.replayPairs(probe.cl, probe.eng, pairsRows); err != nil {
			return err
		}
	}
	if err := b.startWrites(); err != nil {
		return err
	}
	s := b.secs / rounds
	for r := 0; r < rounds; r++ {
		// A traced run traces every other round; the untraced rounds
		// give the baseline of the tracing overhead.
		traced := b.tr != nil && r%2 == 1
		b.openPhase(0.55*s, r, traced)
		b.closedPhase(0.25 * s)
		b.pairsSweeps(pairsCl)
		if err := b.writePhase(0.2 * s); err != nil {
			return err
		}
	}
	if err := b.pairsMetrics(pairsRows); err != nil {
		return err
	}
	if err := b.qualityPass(); err != nil {
		return err
	}
	ops, err := b.recovery()
	if err != nil {
		return err
	}
	if b.tr != nil {
		if err := b.replayWrites(ops); err != nil {
			return err
		}
		b.traceSummary()
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.jsonl", b.w.name, b.seed))
		if err := b.tr.write(path); err != nil {
			return err
		}
		b.note("trace: %d spans of %d requests written to %s", len(b.tr.spans), b.tr.reqs, path)
		return nil
	}
	return b.latencyMetrics()
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// setup builds the engine b.w.builds times and keeps the last one.
// setup_s is the median build time; resident_bytes_per_point is the
// live heap the engine adds, per point. Data generation is not part of
// either, nor is turning the WAL on (see startWrites).
func (b *bench) setup() error {
	var times []float64
	var resident float64
	for i := 0; i < b.w.builds; i++ {
		b.eng = nil
		runtime.GC()
		debug.FreeOSMemory()
		before := heapAlloc()
		start := time.Now()
		eng, err := core.BuildEngine(b.ds.Points, b.cfg)
		if err != nil {
			return fmt.Errorf("build: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		b.eng = eng
		runtime.GC()
		resident = float64(heapAlloc()-before) / float64(len(b.ds.Points))
	}
	b.setE2E("setup_s", median(times), "s")
	b.setE2E("resident_bytes_per_point", resident, "bytes")
	b.note("setup: %d builds %v s, engine %d shards", b.w.builds, times, shards)
	return nil
}

func (b *bench) enableDurability(eng *core.Engine) error {
	if err := eng.EnableDurability(b.walFS, fsyncPolicy); err != nil {
		return fmt.Errorf("enable durability: %w", err)
	}
	return nil
}

// served is an engine behind internal/server on a loopback port.
type served struct {
	eng  *core.Engine
	hs   *http.Server
	srv  *server.Server
	done chan error
	cl   *client
}

func serve(eng *core.Engine, conns int) (*served, error) {
	srv, err := server.New(server.Config{
		Engine: eng,
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		eng:  eng,
		hs:   &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		srv:  srv,
		done: make(chan error, 1),
		cl:   newClient(ln.Addr().String(), conns),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the listener down and waits for the serving goroutine.
func (s *served) stop() {
	s.cl.close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // a hung connection is closed by the deadline
	if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
	}
	s.srv.Close()
}

func (b *bench) searchReq(i int) request {
	j := i % len(b.pool)
	return request{kind: opSearch, body: b.bodies[j], ref: j}
}

func (b *bench) insertReq() (request, error) {
	if b.nextIns == len(b.insVecs) {
		const chunk = 256
		b.insVecs = append(b.insVecs, b.ds.Queries(chunk, b.seed+1000+int64(len(b.insVecs)/chunk))...)
	}
	body, err := json.Marshal(map[string]any{"p": b.insVecs[b.nextIns]})
	b.nextIns++
	return request{kind: opInsert, body: body, ref: b.nextIns - 1}, err
}

func deleteRequest(id int32) request {
	return request{kind: opDelete, body: []byte(fmt.Sprintf(`{"id":%d}`, id)), ref: int(id)}
}

// openPhase runs one round's open-loop slice: searches at the
// workload rate.
func (b *bench) openPhase(d float64, round int, traced bool) {
	n := int(b.w.rate * d)
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		reqs = append(reqs, b.searchReq(round*n+i))
	}
	var tr *tracer
	if traced {
		tr = b.tr
	}
	ph := openLoop(b.main.cl, b.nproc, b.w.rate, reqs, 2*time.Second, tr)
	b.absorbLatencies(ph)
	if b.tr != nil {
		h := 0
		if traced {
			h = 1
		}
		b.overhead[h] = append(b.overhead[h], latenciesMS(ph.samples, opSearch)...)
	}
}

// absorbLatencies checks a phase's answers and keeps the latency of
// every answered search, insert and delete with its due time.
func (b *bench) absorbLatencies(ph phase) {
	b.absorb(ph)
	for i := range ph.samples {
		s := &ph.samples[i]
		if s.ok() && s.req.kind != opPairs {
			b.lat[s.req.kind] = append(b.lat[s.req.kind], timedLatency{at: ph.start.Add(s.due), ms: ms(s.latency())})
		}
	}
	if ph.traced {
		for i := range ph.samples {
			if s := &ph.samples[i]; !s.unsent {
				b.late = append(b.late, ms(s.sent-s.due))
			}
		}
	}
}

// closedPhase runs one round's closed-loop slice: nproc connections,
// each sending its next search as soon as the last one answers. It
// files the slice's answered searches per second; search_qps is the
// median over rounds.
func (b *bench) closedPhase(d float64) {
	ph := closedLoop(b.main.cl, b.nproc, time.Duration(d*float64(time.Second)), b.searchReq)
	b.absorb(ph)
	ok := 0
	for i := range ph.samples {
		if ph.samples[i].ok() {
			ok++
		}
	}
	b.qps = append(b.qps, float64(ok)/ph.wall.Seconds())
}

// absorb counts a phase's requests and checks every answer.
func (b *bench) absorb(ph phase) {
	for i := range ph.samples {
		s := &ph.samples[i]
		b.attempted++
		if !s.ok() {
			b.failed++
			continue
		}
		sent := ph.start.Add(s.sent)
		done := ph.start.Add(s.done)
		if s.req.kind != opSearch && s.req.kind != opPairs {
			b.writes = append(b.writes, *s)
		}
		switch s.req.kind {
		case opSearch:
			var r struct {
				Results []neighbor `json:"results"`
			}
			if err := json.Unmarshal(s.resp, &r); err != nil {
				b.fail("search response: %v", err)
				continue
			}
			if err := checkNeighbors(b.pool[s.req.ref], r.Results, b.w.k, b.liveBefore(sent)); err != nil {
				b.fail("search %d: %v", s.req.ref, err)
			}
		case opInsert:
			var r struct {
				ID int32 `json:"id"`
			}
			if err := json.Unmarshal(s.resp, &r); err != nil {
				b.fail("insert response: %v", err)
				continue
			}
			if _, dup := b.inserted[r.ID]; dup || int(r.ID) < len(b.ds.Points) {
				b.fail("insert answered id %d, which was already assigned", r.ID)
			}
			b.inserted[r.ID] = b.insVecs[s.req.ref]
			b.acked = append(b.acked, r.ID)
		case opDelete:
			b.deadAt[int32(s.req.ref)] = done
		}
	}
}

// liveBefore returns the id lookup valid for an answer to a request
// sent at t: an id is live if it was assigned and no delete of it had
// been answered before t.
func (b *bench) liveBefore(t time.Time) func(int32) ([]float64, bool) {
	return func(id int32) ([]float64, bool) {
		if at, dead := b.deadAt[id]; dead && at.Before(t) {
			return nil, false
		}
		if id >= 0 && int(id) < len(b.ds.Points) {
			return b.ds.Points[id], true
		}
		v, ok := b.inserted[id]
		return v, ok
	}
}

// liveRows returns the current live set (after all answered writes).
func (b *bench) liveRows() ([][]float64, []int32) {
	var rows [][]float64
	var ids []int32
	for i, p := range b.ds.Points {
		if _, dead := b.deadAt[int32(i)]; !dead {
			rows = append(rows, p)
			ids = append(ids, int32(i))
		}
	}
	for _, id := range b.acked {
		if _, dead := b.deadAt[id]; !dead {
			rows = append(rows, b.inserted[id])
			ids = append(ids, id)
		}
	}
	return rows, ids
}

// qualityPass sends every pool query once on the quiesced engine and
// scores the answers against exact neighbours computed afterwards, so
// no ground truth runs while anything is timed.
func (b *bench) qualityPass() error {
	got := make([][]neighbor, len(b.pool))
	ctx := context.Background()
	now := time.Now()
	for i := range b.pool {
		b.attempted++
		status, resp, err := b.main.cl.do(ctx, b.searchReq(i))
		if err != nil || status != http.StatusOK {
			b.failed++
			continue
		}
		var r struct {
			Results []neighbor `json:"results"`
		}
		if err := json.Unmarshal(resp, &r); err != nil {
			return fmt.Errorf("quality search response: %w", err)
		}
		if err := checkNeighbors(b.pool[i], r.Results, b.w.k, b.liveBefore(now)); err != nil {
			b.fail("quality search %d: %v", i, err)
		}
		got[i] = r.Results
	}
	rows, ids := b.liveRows()
	truth, err := exactKNN(rows, ids, b.pool, b.w.k)
	if err != nil {
		return err
	}
	recall, ratioV, err := score(got, truth, b.w.k)
	if err != nil {
		return err
	}
	b.setE2E("recall_at_k", recall, "frac")
	b.setE2E("dist_ratio", ratioV, "ratio")
	b.note("quality: %d probe queries, k=%d, %d live points", len(b.pool), b.w.k, len(rows))
	return nil
}

// writePhase runs one round's write slice: over one connection,
// b.w.writeRate·d inserts, each followed by the delete of the id it was
// given. The live set the reads see never changes, the latency is the
// write path's own, without queueing, and the number of logged records
// recovery replays is the same on every run.
func (b *bench) writePhase(d float64) error {
	ctx := context.Background()
	ph := phase{start: time.Now()}
	send := func(r request) *sample {
		s := sample{req: r, due: time.Since(ph.start)}
		s.sent = s.due
		s.status, s.resp, s.err = b.main.cl.do(ctx, r)
		s.done = time.Since(ph.start)
		ph.samples = append(ph.samples, s)
		return &ph.samples[len(ph.samples)-1]
	}
	for i := 0; i < int(b.w.writeRate*d); i++ {
		ins, err := b.insertReq()
		if err != nil {
			return err
		}
		s := send(ins)
		if !s.ok() {
			continue
		}
		var r struct {
			ID int32 `json:"id"`
		}
		if err := json.Unmarshal(s.resp, &r); err != nil {
			return fmt.Errorf("insert response: %w", err)
		}
		send(deleteRequest(r.ID))
	}
	ph.wall = time.Since(ph.start)
	b.absorbLatencies(ph)
	return nil
}

// startWrites prepares the first timed write: it turns the WAL on
// (untimed) and warms the write path.
func (b *bench) startWrites() error {
	if err := b.enableDurability(b.eng); err != nil {
		return err
	}
	return b.warmWrites()
}

// warmWrites sends one untimed insert per shard and then deletes the
// points it added: the first insert into a freshly built shard grows
// its storage, a once-per-process cost that would otherwise land in the
// write percentiles of a short run.
func (b *bench) warmWrites() error {
	first := len(b.acked)
	for i := 0; i < shards; i++ {
		r, err := b.insertReq()
		if err != nil {
			return err
		}
		b.absorb(closedOnce(b.main.cl, r, nil))
	}
	for _, id := range b.acked[first:] {
		b.absorb(closedOnce(b.main.cl, deleteRequest(id), nil))
	}
	return nil
}

func pairsRequest() request {
	return request{kind: opPairs, body: []byte(fmt.Sprintf(`{"k":%d,"ratio":%v}`, pairsK, ratio))}
}

// pairsSweeps sends probeSweeps /v1/pairs sweeps, one after another.
func (b *bench) pairsSweeps(cl *client) {
	for i := 0; i < probeSweeps; i++ {
		b.sweeps = append(b.sweeps, closedOnce(cl, pairsRequest(), nil).samples...)
	}
}

// pairsMetrics checks every sweep's answer (ids are row indexes of
// rows) and sets pairs_s, the median sweep time, and pairs_recall, the
// share of the exact k closest pairs found, averaged over
// pairsRecallEngines engines.
func (b *bench) pairsMetrics(rows [][]float64) error {
	vecOf := func(id int32) ([]float64, bool) {
		if id < 0 || int(id) >= len(rows) {
			return nil, false
		}
		return rows[id], true
	}
	var times []float64
	var first []pair
	for i := range b.sweeps {
		s := &b.sweeps[i]
		b.attempted++
		if !s.ok() {
			b.failed++
			continue
		}
		var r struct {
			Pairs []pair `json:"pairs"`
		}
		if err := json.Unmarshal(s.resp, &r); err != nil {
			return fmt.Errorf("pairs response: %w", err)
		}
		if err := checkPairs(r.Pairs, pairsK, vecOf); err != nil {
			b.fail("pairs sweep %d: %v", i, err)
		}
		if first == nil {
			first = r.Pairs
		}
		times = append(times, (s.done - s.sent).Seconds())
	}
	if len(times) == 0 {
		return fmt.Errorf("no /v1/pairs sweep succeeded")
	}
	exact, err := lscan.ClosestPairs(rows, pairsK)
	if err != nil {
		return err
	}
	want := map[[2]int32]bool{}
	for _, p := range exact {
		want[[2]int32{p.I, p.J}] = true
	}
	recall := func(ps []pair) float64 {
		hits := 0
		for _, p := range ps {
			if want[[2]int32{p.I, p.J}] {
				hits++
			}
		}
		return float64(hits) / float64(pairsK)
	}
	// One answer of k=100 pairs scores the engine's recall to within
	// about ±0.05, a seventh of its value, so it is averaged over the
	// served engine and engines built over the same rows with other
	// seeds (answered in-process, untimed).
	recalls := []float64{recall(first)}
	for i := 1; i < pairsRecallEngines; i++ {
		cfg := b.cfg
		cfg.Seed = b.seed + int64(i)*1_000_003
		eng, err := core.BuildEngine(rows, cfg)
		if err != nil {
			return err
		}
		ps, err := eng.SearchPairs(context.Background(), pairsK, core.SearchOptions{C: ratio})
		if err != nil {
			return err
		}
		got := make([]pair, len(ps))
		for j, p := range ps {
			got[j] = pair{I: p.I, J: p.J, Dist: p.Dist}
		}
		if err := checkPairs(got, pairsK, vecOf); err != nil {
			b.fail("pairs recall engine %d: %v", i, err)
		}
		recalls = append(recalls, recall(got))
	}
	b.setE2E("pairs_s", median(times), "s")
	b.setE2E("pairs_recall", mean(recalls), "frac")
	b.note("pairs: %d sweeps over %d points, k=%d, one connection; recall %v over %d engine seeds",
		len(times), len(rows), pairsK, recalls, pairsRecallEngines)
	return nil
}

// pairsProbe serves the closest-pair engine: a separate engine over the
// first pairsPoints points of the workload's data, on its own port.
func (b *bench) pairsProbe() (*served, [][]float64, error) {
	rows := b.ds.Points[:min(b.w.pairsPoints, len(b.ds.Points))]
	eng, err := core.BuildEngine(rows, b.cfg)
	if err != nil {
		return nil, nil, err
	}
	sv, err := serve(eng, 1)
	return sv, rows, err
}

// recovery stops serving, records the probe answers, closes the WAL
// and reopens the state b.w.reopens times. It checks that
// every acknowledged insert is live, every acknowledged delete is gone
// and the probe answers are identical. It returns the logged
// operations in commit order (for the write replay of a traced run).
func (b *bench) recovery() ([]wal.Op, error) {
	b.main.stop()
	b.main = nil
	ctx := context.Background()
	before := make([][]core.Result, len(b.pool))
	for i, q := range b.pool {
		res, err := b.eng.Search(ctx, q, b.w.k, core.SearchOptions{C: ratio})
		if err != nil {
			return nil, err
		}
		before[i] = res
	}
	st, _ := b.eng.DurabilityStats()
	info := b.eng.Info()
	b.setLayer("wal.syncs_per_append", float64(st.Syncs)/float64(max(st.Appended, 1)), "count")
	b.setLayer("core.compactions", float64(info.Compactions), "count")
	if err := b.eng.CloseDurable(); err != nil {
		return nil, err
	}
	b.eng = nil
	var ops []wal.Op
	if b.tr != nil {
		fs := b.walFS
		ds, err := wal.ScanDir(fs)
		if err != nil {
			return nil, err
		}
		_, _, seqs, err := ds.Plan()
		if err != nil {
			return nil, err
		}
		if _, err := wal.ReplaySegments(fs, seqs, func(op wal.Op) error {
			op.Vec = append([]float64(nil), op.Vec...)
			ops = append(ops, op)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	var times []float64
	for r := 0; r < b.w.reopens; r++ {
		runtime.GC()
		debug.FreeOSMemory()
		start := time.Now()
		eng, err := core.OpenDurable(b.walFS, fsyncPolicy)
		if err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if r == 0 {
			dst, _ := eng.DurabilityStats()
			b.setLayer("wal.replay_records", float64(dst.ReplayRecords), "count")
			b.checkRecovered(eng, before)
		}
		if err := eng.CloseDurable(); err != nil {
			return nil, err
		}
	}
	b.setE2E("recovery_s", median(times), "s")
	b.note("recovery: %d reopens %v s, %d acknowledged inserts, %d acknowledged deletes",
		b.w.reopens, times, len(b.acked), len(b.deadAt))
	return ops, nil
}

func (b *bench) checkRecovered(eng *core.Engine, before [][]core.Result) {
	for _, id := range b.acked {
		_, dead := b.deadAt[id]
		if eng.IsLive(id) == dead {
			b.fail("recovered engine: inserted id %d live=%v, deleted=%v", id, eng.IsLive(id), dead)
		}
	}
	for id := range b.deadAt {
		if eng.IsLive(id) {
			b.fail("recovered engine: deleted id %d is live", id)
		}
	}
	ctx := context.Background()
	for i, q := range b.pool {
		res, err := eng.Search(ctx, q, b.w.k, core.SearchOptions{C: ratio})
		if err != nil {
			b.fail("recovered engine: probe %d: %v", i, err)
			continue
		}
		if len(res) != len(before[i]) {
			b.fail("recovered engine: probe %d answers %d results, %d before close", i, len(res), len(before[i]))
			continue
		}
		for j := range res {
			if res[j] != before[i][j] {
				b.fail("recovered engine: probe %d rank %d is %v, was %v before close", i, j, res[j], before[i][j])
				break
			}
		}
	}
}

// timedLatency is one answered request's due time and latency.
type timedLatency struct {
	at time.Time
	ms float64
}

// latencyMetrics turns the latencies into the end-to-end latency
// metrics. The p50 of a kind is the median of all its samples. For the
// tail, its samples, in due-time order, are cut into windows of about
// tailWindow; per window it takes the highest percentile up to p99 with
// at least minBeyond samples above it, and reports the median over the
// windows, so a burst of interference from outside the process moves
// one window, not the result.
func (b *bench) latencyMetrics() error {
	for _, m := range []struct {
		kind      opKind
		p50, tail string
	}{
		{opSearch, "search_p50_ms", "search_p99_ms"},
		{opInsert, "insert_p50_ms", "insert_p99_ms"},
		{opDelete, "", "delete_p99_ms"},
	} {
		lat := b.lat[m.kind]
		slices.SortFunc(lat, func(x, y timedLatency) int { return x.at.Compare(y.at) })
		all := make([]float64, len(lat))
		for i, l := range lat {
			all[i] = l.ms
		}
		w := max(len(all)/tailWindow, 1)
		var tails, pcts []float64
		for i := 0; i < w; i++ {
			t, err := summarize(all[i*len(all)/w:(i+1)*len(all)/w], 99)
			if err != nil {
				return fmt.Errorf("%s latencies: %w", m.kind, err)
			}
			tails = append(tails, t.pctValue)
			pcts = append(pcts, t.pct)
		}
		if m.p50 != "" {
			b.setE2E(m.p50, median(all), "ms")
		}
		b.setE2E(m.tail, median(tails), "ms")
		b.note("%s: %d samples; %s is the median over %d windows of their p%.1f-p%.1f (each with >= %d samples above)",
			m.kind, len(all), m.tail, w, slices.Min(pcts), slices.Max(pcts), minBeyond)
	}
	b.setE2E("search_qps", median(b.qps), "1/s")
	b.note("closed loop: %d connections, median over %d rounds of %v searches/s", b.nproc, len(b.qps), b.qps)
	b.setE2E("ops_ok_frac", float64(b.attempted-b.failed)/float64(b.attempted), "frac")
	b.note("operations: %d attempted, %d failed, refused or never sent", b.attempted, b.failed)
	return nil
}

// tailWindow is the number of samples per window of a tail metric:
// each window's tail is its p95.
const tailWindow = 200
