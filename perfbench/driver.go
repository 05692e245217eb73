package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opKind is the operation type of one request; latencies are kept per
// kind so a slow write never hides in the search percentiles.
type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
	opPairs
)

func (k opKind) String() string {
	return [...]string{"search", "insert", "delete", "pairs"}[k]
}

func (k opKind) path() string {
	return [...]string{"/v1/search", "/v1/insert", "/v1/delete", "/v1/pairs"}[k]
}

// request is one pre-encoded operation. Bodies are encoded before a
// phase starts so the generator spends no CPU on JSON while timing.
type request struct {
	kind opKind
	body []byte
	// ref is what the request refers to: the query-pool index of a
	// search, the insert-pool index of an insert, the id of a delete.
	ref int
}

// sample is the record of one attempted request. Times are offsets
// from the phase start. A request is timed from due, the moment the
// schedule wanted it sent, so a stall that delays later requests
// counts against them (no coordinated omission).
type sample struct {
	req             request
	due, sent, done time.Duration
	status          int
	resp            []byte
	err             error
	unsent          bool
}

func (s *sample) ok() bool { return !s.unsent && s.err == nil && s.status == http.StatusOK }

func (s *sample) latency() time.Duration { return s.done - s.due }

// client issues requests over at most conns keep-alive connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxConnsPerHost:     conns,
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the status and the full body.
func (c *client) do(ctx context.Context, r request) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.kind.path(), bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// phase is the record of one load phase: its samples, with times as
// offsets from start, and its wall time.
type phase struct {
	start   time.Time
	samples []sample
	wall    time.Duration
	traced  bool
}

// openLoop sends reqs[i] at phase start + i/rate from conns workers and
// returns one sample per request. A request that no worker has picked
// up by the end of the schedule plus grace is never sent and counts as
// failed. With a tracer, each request's wait and round trip are
// recorded as spans.
func openLoop(c *client, conns int, rate float64, reqs []request, grace time.Duration, tr *tracer) phase {
	out := make([]sample, len(reqs))
	interval := float64(time.Second) / rate
	for i := range out {
		out[i].req = reqs[i]
		out[i].due = time.Duration(float64(i) * interval)
	}
	span := time.Duration(float64(len(reqs)) * interval)
	cutoff := span + grace
	ctx, cancel := context.WithTimeout(context.Background(), cutoff+30*time.Second)
	defer cancel()
	start := time.Now()
	// Sized to the whole schedule so the dispatcher never blocks on a
	// busy pool: a full queue is exactly the backlog latency measures.
	queue := make(chan int, len(reqs))
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			for i := range queue {
				s := &out[i]
				s.sent = time.Since(start)
				if s.sent > cutoff {
					s.unsent = true
					continue
				}
				s.status, s.resp, s.err = c.do(ctx, s.req)
				s.done = time.Since(start)
				if tr != nil {
					id := tr.newRequest()
					tr.record(id, "driver.wait", start.Add(s.due), start.Add(s.sent), -1)
					tr.record(id, "http."+s.req.kind.String(), start.Add(s.sent), start.Add(s.done), -1)
				}
			}
		}()
	}
	for i := range out {
		if d := out[i].due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		queue <- i
	}
	close(queue)
	wg.Wait()
	return phase{start: start, samples: out, wall: time.Since(start), traced: tr != nil}
}

// closedLoop runs conns workers that each send their next request as
// soon as the previous one answers, until d has elapsed. next(i) gives
// the i-th request in send order.
func closedLoop(c *client, conns int, d time.Duration, next func(i int) request) phase {
	var mu sync.Mutex
	var out []sample
	var counter atomic.Int64
	ctx, cancel := context.WithTimeout(context.Background(), d+60*time.Second)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(conns)
	for w := 0; w < conns; w++ {
		go func() {
			defer wg.Done()
			var local []sample
			for time.Since(start) < d {
				s := sample{req: next(int(counter.Add(1) - 1))}
				s.due = time.Since(start)
				s.sent = s.due
				s.status, s.resp, s.err = c.do(ctx, s.req)
				s.done = time.Since(start)
				local = append(local, s)
			}
			mu.Lock()
			out = append(out, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return phase{start: start, samples: out, wall: time.Since(start)}
}

// closedOnce sends one request and waits for its answer.
func closedOnce(c *client, r request, tr *tracer) phase {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	s := sample{req: r}
	s.status, s.resp, s.err = c.do(ctx, r)
	s.done = time.Since(start)
	if tr != nil {
		tr.record(tr.newRequest(), "http."+r.kind.String(), start, start.Add(s.done), -1)
	}
	return phase{start: start, samples: []sample{s}, wall: s.done, traced: tr != nil}
}

// tail is a latency summary: the median and the highest percentile, up
// to the one asked for, that still has at least minBeyond samples
// ranked above it.
type tail struct {
	n        int
	p50      float64
	pct      float64 // the percentile reported as the tail
	pctValue float64
}

// minBeyond is how many samples must rank above a reported percentile.
const minBeyond = 10

// tailRank returns the 1-based nearest-rank position of the highest
// percentile ≤ want that leaves at least minBeyond of n samples ranked
// above it, and the percentile that position stands for. ok is false
// when n is too small for such a percentile to lie at or above the
// median.
func tailRank(n int, want float64) (rank int, pct float64, ok bool) {
	if n < 2*minBeyond {
		return 0, 0, false
	}
	rank = int(math.Ceil(want * float64(n) / 100))
	if rank > n-minBeyond {
		rank = n - minBeyond
	}
	return rank, 100 * float64(rank) / float64(n), true
}

// summarize computes the tail summary of values (any unit).
func summarize(values []float64, want float64) (tail, error) {
	rank, pct, ok := tailRank(len(values), want)
	if !ok {
		return tail{}, fmt.Errorf("%d samples are too few for a tail percentile (need %d)", len(values), 2*minBeyond)
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	mid := (len(s) + 1) / 2
	return tail{n: len(s), p50: s[mid-1], pct: pct, pctValue: s[rank-1]}, nil
}

// latenciesMS returns the due-to-done latencies of the successful
// samples of one kind, in milliseconds.
func latenciesMS(ss []sample, kind opKind) []float64 {
	var out []float64
	for i := range ss {
		if ss[i].req.kind == kind && ss[i].ok() {
			out = append(out, ms(ss[i].latency()))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}
