package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bfsd"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
	"repro/internal/trace"
)

// The serving workload's traffic. Phase A is an open loop: seeded Poisson
// arrivals at each ladder rate, every request timed from the instant it was
// due, so a stall charges the requests queued behind it (no coordinated
// omission). Phase B is a closed loop of clients that each wait for their
// reply: it finds the saturation throughput.
const (
	referenceRate = 120 // q/s: the rate whose latency is gated
	maxInFlight   = 32
	closedClients = 16
	latencyLimit  = 25.0 // ms on p95: the limit max_ok_rate_qps is judged by
)

var ladderRates = []float64{60, referenceRate, 180, 240}

// opMix is the cumulative operation mix: 45% distance, 25% reach, 20%
// parent, 10% parents (the full array: the tail of the latency).
var opMix = []struct {
	op  string
	cum float64
}{{bfsd.OpDistance, 0.45}, {bfsd.OpReach, 0.70}, {bfsd.OpParent, 0.90}, {bfsd.OpParents, 1}}

type query struct {
	op           string
	root, target int64
	rootIdx      int
	due          time.Duration // open loop: offset from the step's start
}

// answer is one request's outcome. Bodies are kept and checked after the
// phase, outside every timed region.
type answer struct {
	q          query
	sent, done time.Duration // offsets from the step's start
	spanStart  int64         // tracer clock at send
	status     int
	body       []byte
	err        error
}

// sweep is one RunBatch call as the timing adapter saw it.
type sweep struct {
	spanStart int64
	dur       time.Duration
	batch     int
	iters     int
	rec       *stats.Recorder
}

// timedEngine wraps the bfsd.Engine interface: the batcher calls it, it
// times the sweep and keeps the sweep's accounting.
type timedEngine struct {
	eng *core.Engine
	e   *env
	mu  sync.Mutex
	log []sweep
}

func (t *timedEngine) RunBatch(roots []int64) (*core.BatchResult, error) {
	s0, t0 := t.e.now(), time.Now()
	res, err := t.eng.RunBatch(roots)
	sw := sweep{spanStart: s0, dur: time.Since(t0), batch: len(roots)}
	if err == nil {
		sw.iters, sw.rec = res.Iterations, res.Recorder
	}
	t.mu.Lock()
	t.log = append(t.log, sw)
	t.mu.Unlock()
	return res, err
}

// take returns the sweeps logged so far and starts a fresh log.
func (t *timedEngine) take() []sweep {
	t.mu.Lock()
	defer t.mu.Unlock()
	log := t.log
	t.log = nil
	return log
}

// service is one constructed daemon: resident engine, batcher, HTTP server
// on a loopback listener, and the client that drives it.
type service struct {
	eng     *timedEngine
	batcher *bfsd.Batcher
	srv     *http.Server
	served  chan struct{} // closed when Serve has returned
	url     string
	client  *http.Client
}

func newService(e *env, in *inputs, scale int, tr *trace.Tracer) (*service, error) {
	eng, err := core.NewEngine(in.n, in.edges, meshOptions(scale, topology.Mesh{Rows: 2, Cols: 2}, tr))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{eng: &timedEngine{eng: eng, e: e}, served: make(chan struct{})}
	s.batcher = bfsd.NewBatcher(s.eng, bfsd.Config{Window: 2 * time.Millisecond, MaxBatch: 8})
	s.srv = &http.Server{Handler: bfsd.NewServer(s.batcher, in.n).Handler()}
	go func() {
		defer close(s.served)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on Shutdown
	}()
	s.url = "http://" + ln.Addr().String() + "/query"
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConns: 2 * maxInFlight, MaxIdleConnsPerHost: 2 * maxInFlight}}
	return s, nil
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.srv.Shutdown(ctx)
	<-s.served
	s.batcher.Close()
}

// ask sends one query and reads the reply to its last byte.
func (s *service) ask(e *env, q query, start time.Time) answer {
	a := answer{q: q, spanStart: e.now(), sent: time.Since(start)}
	body := fmt.Sprintf(`{"root":%d,"op":%q,"target":%d}`, q.root, q.op, q.target)
	if q.op == bfsd.OpParents {
		body = fmt.Sprintf(`{"root":%d,"op":%q}`, q.root, q.op)
	}
	resp, err := s.client.Post(s.url, "application/json", strings.NewReader(body))
	if err != nil {
		a.err, a.done = err, time.Since(start)
		return a
	}
	a.body, a.err = io.ReadAll(resp.Body)
	a.done = time.Since(start)
	resp.Body.Close()
	a.status = resp.StatusCode
	return a
}

// traffic draws the seeded query stream.
type traffic struct {
	rng *rand.Rand
	in  *inputs
}

func (t *traffic) next() query {
	q := query{rootIdx: t.rng.Intn(len(t.in.roots)), target: t.rng.Int63n(t.in.n)}
	q.root = t.in.roots[q.rootIdx]
	u := t.rng.Float64()
	for _, m := range opMix {
		if u < m.cum {
			q.op = m.op
			break
		}
	}
	return q
}

// openLoop sends Poisson arrivals at rate for d, at most maxInFlight at a
// time, and waits for the stragglers (outside d). backlog is how many were
// still in flight when the last arrival was sent.
func (s *service) openLoop(e *env, tf *traffic, rate float64, d time.Duration) (answers []answer, backlog int) {
	var qs []query
	for t := tf.rng.ExpFloat64() / rate; t < d.Seconds(); t += tf.rng.ExpFloat64() / rate {
		q := tf.next()
		q.due = time.Duration(t * float64(time.Second))
		qs = append(qs, q)
	}
	answers = make([]answer, len(qs))
	sem := make(chan struct{}, maxInFlight)
	var wg sync.WaitGroup
	start := time.Now()
	for i, q := range qs {
		if wait := q.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int, q query) {
			defer func() { <-sem; wg.Done() }()
			answers[i] = s.ask(e, q, start)
		}(i, q)
	}
	backlog = len(sem)
	wg.Wait()
	return answers, backlog
}

// closedLoop runs closedClients clients back to back for d and returns the
// answers and the wall time from the first send to the last reply.
func (s *service) closedLoop(e *env, tf *traffic, d time.Duration) ([]answer, time.Duration) {
	// The stream is drawn up front so the clients share one seeded order.
	qs := make([]query, 0, 1<<16)
	for len(qs) < cap(qs) {
		qs = append(qs, tf.next())
	}
	var next atomic.Int64
	perClient := make([][]answer, closedClients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				i := next.Add(1) - 1
				if int(i) >= len(qs) {
					return
				}
				perClient[c] = append(perClient[c], s.ask(e, qs[i], start))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []answer
	for _, as := range perClient {
		all = append(all, as...)
	}
	return all, wall
}

// oracle holds, per sampled root, what the sequential reference says: BFS
// levels (they are unique, unlike parents) and the hash of the parent array
// the engine produced for it, itself checked against the reference.
type oracle struct {
	in     *inputs
	levels [][]int64
	hashes []uint64
}

// stepStats is the digest of one phase's answers.
type stepStats struct {
	ms       []float64 // due-to-last-byte (open loop) or send-to-last-byte (closed), answered only
	lateMs   []float64 // send − due
	refused  int       // HTTP 429
	failed   int       // transport errors, other statuses, wrong answers
	overhead map[string][]float64
	queueMs  []float64 // the response's own latency_seconds: enqueue to answer
}

// digest checks every answer against the oracle and folds the phase. open
// says whether latencies count from the due time.
func (o *oracle) digest(answers []answer, open bool) *stepStats {
	st := &stepStats{overhead: map[string][]float64{}}
	for _, a := range answers {
		from := a.sent
		if open {
			from = a.q.due
			st.lateMs = append(st.lateMs, (a.sent-a.q.due).Seconds()*1e3)
		}
		switch {
		case a.err != nil:
			st.failed++
			fmt.Fprintln(os.Stderr, "benchmark: query failed:", a.err)
			continue
		case a.status == http.StatusTooManyRequests:
			st.refused++
			continue
		case a.status != http.StatusOK:
			st.failed++
			fmt.Fprintf(os.Stderr, "benchmark: query got HTTP %d: %s\n", a.status, bytes.TrimSpace(a.body))
			continue
		}
		var resp bfsd.QueryResponse
		if err := json.Unmarshal(a.body, &resp); err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "benchmark: undecodable reply:", err)
			continue
		}
		if err := o.check(a.q, &resp); err != nil {
			st.failed++
			fmt.Fprintln(os.Stderr, "benchmark: wrong answer:", err)
			continue
		}
		ms := (a.done - from).Seconds() * 1e3
		st.ms = append(st.ms, ms)
		st.queueMs = append(st.queueMs, resp.LatencySeconds*1e3)
		st.overhead[a.q.op] = append(st.overhead[a.q.op], (a.done-a.sent).Seconds()*1e3-resp.LatencySeconds*1e3)
	}
	return st
}

func (o *oracle) check(q query, resp *bfsd.QueryResponse) error {
	lv := o.levels[q.rootIdx]
	switch q.op {
	case bfsd.OpDistance:
		if resp.Distance == nil || *resp.Distance != lv[q.target] {
			return fmt.Errorf("distance(%d,%d) = %v, reference %d", q.root, q.target, resp.Distance, lv[q.target])
		}
	case bfsd.OpReach:
		if resp.Reachable == nil || *resp.Reachable != (lv[q.target] >= 0) {
			return fmt.Errorf("reach(%d,%d) = %v, reference level %d", q.root, q.target, resp.Reachable, lv[q.target])
		}
	case bfsd.OpParent:
		if resp.Parent == nil {
			return fmt.Errorf("parent(%d,%d) missing", q.root, q.target)
		}
		p := *resp.Parent
		switch {
		case lv[q.target] < 0:
			if p >= 0 {
				return fmt.Errorf("parent(%d,%d) = %d for an unreachable target", q.root, q.target, p)
			}
		case q.target == q.root:
			if p != q.root {
				return fmt.Errorf("parent of root %d = %d", q.root, p)
			}
		case p < 0 || p >= o.in.n || lv[p] != lv[q.target]-1 || !o.in.hasEdge(p, q.target):
			return fmt.Errorf("parent(%d,%d) = %d is not a BFS parent", q.root, q.target, p)
		}
	case bfsd.OpParents:
		if h := hashInt64s(resp.Parents); h != o.hashes[q.rootIdx] {
			return fmt.Errorf("parents(%d): hash %x, checked array has %x", q.root, h, o.hashes[q.rootIdx])
		}
	}
	return nil
}

// buildOracle runs every sampled root once through the engine (batches of
// 8, untimed), checks each parent array against the sequential reference
// and keeps the reference levels and the array's hash. It doubles as the
// warm-up.
func buildOracle(in *inputs, eng *core.Engine, r *result) (*oracle, error) {
	o := &oracle{in: in, levels: make([][]int64, len(in.roots)), hashes: make([]uint64, len(in.roots))}
	chk := newChecker()
	for lo := 0; lo < len(in.roots); lo += 8 {
		hi := min(lo+8, len(in.roots))
		res, err := eng.RunBatch(in.roots[lo:hi])
		if err != nil {
			return nil, fmt.Errorf("warm-up sweep: %w", err)
		}
		for k, q := range res.Queries {
			i, parent := lo+k, q.Parent
			o.hashes[i] = hashInt64s(parent)
			chk.check(func() error {
				lv, err := in.refLevels(in.roots[i])
				o.levels[i] = lv
				if err != nil {
					return err
				}
				return in.checkBFS(in.roots[i], parent)
			})
		}
	}
	r.Attempted += int64(len(in.roots))
	for _, err := range chk.wait() {
		r.Failed++
		fmt.Fprintln(os.Stderr, "benchmark: wrong output:", err)
	}
	return o, nil
}

func runServe(e *env) error {
	scale := e.pick(16, 10)
	in, err := makeInputsSpan(e, scale, e.pick(512, 32))
	if err != nil {
		return err
	}
	r := e.res
	r.Roots = in.roots
	r.detail("rmat.gen_s", in.genSeconds, "s", 1)

	setups, svc, err := measureSetup(e,
		func() (*service, error) { return newService(e, in, scale, nil) }, func(s *service) { s.close() })
	if err != nil {
		return err
	}
	defer func() { svc.close() }()

	o, err := buildOracle(in, svc.eng.eng, r)
	if err != nil {
		return err
	}
	tf := &traffic{rng: rand.New(rand.NewSource(int64(e.cfg.seed ^ arrivalStream))), in: in}
	seconds := func(share float64) time.Duration {
		return time.Duration(e.cfg.seconds * share * float64(time.Second))
	}
	count := func(st *stepStats, sent int) {
		r.Attempted += int64(sent)
		r.Failed += int64(st.failed + st.refused)
	}

	// step runs one open-loop rate and reports its row of the ladder.
	maxOK := 0.0
	step := func(svc *service, prefix string, rate float64, d time.Duration) ([]answer, *stepStats) {
		answers, backlog := svc.openLoop(e, tf, rate, d)
		st := o.digest(answers, true)
		count(st, len(answers))
		p95 := percentile(st.ms, 0.95)
		if p95 <= latencyLimit && st.refused+st.failed == 0 && backlog < maxInFlight/2 && rate > maxOK {
			maxOK = rate
		}
		name := fmt.Sprintf("%srate%g.", prefix, rate)
		r.detail(name+"query_ms_p50", percentile(st.ms, 0.5), "ms", len(st.ms))
		r.detail(name+"query_ms_p95", p95, "ms", len(st.ms))
		r.detail(name+"refused", float64(st.refused), "count", len(answers))
		r.detail(name+"backlog_at_end", float64(backlog), "count", len(answers))
		r.detail(name+"generator_late_ms_p99", percentile(st.lateMs, 0.99), "ms", len(st.lateMs))
		return answers, st
	}

	if !e.cfg.trace {
		// The gated numbers only: the reference rate for three fifths of
		// the run, the closed loop for the rest. The other ladder rates are
		// informational and run with the traced run.
		_, ref := step(svc, "", referenceRate, seconds(0.6))
		answers, wall := svc.closedLoop(e, tf, seconds(0.4))
		sat := o.digest(answers, false)
		count(sat, len(answers))
		if len(ref.ms) == 0 || len(sat.ms) == 0 {
			return fmt.Errorf("no query was answered")
		}
		r.endToEnd(mSetup, "", median(setups), "s", len(setups))
		r.endToEnd(mOpP50, "query_ms_p50", percentile(ref.ms, 0.5), "ms", len(ref.ms))
		r.endToEnd(mThroughput, "sat_qps", float64(len(sat.ms))/wall.Seconds(), "1/s", len(sat.ms))
		r.detail("closed.query_ms_p50", percentile(sat.ms, 0.5), "ms", len(sat.ms))
		r.detail("closed.query_ms_p95", percentile(sat.ms, 0.95), "ms", len(sat.ms))
		serveDetails(r, svc, svc.eng.take(), ref, sat)
		return nil
	}

	// Traced run: the ladder untraced (its reference step is also the
	// untraced side of the tracing overhead), then the reference rate and a
	// short closed loop against a traced engine.
	var plain *stepStats
	for _, rate := range ladderRates {
		if rate == referenceRate {
			_, plain = step(svc, "", rate, seconds(0.25))
		} else {
			step(svc, "", rate, seconds(0.25/float64(len(ladderRates)-1)))
		}
	}
	r.detail("max_ok_rate_qps", maxOK, "1/s", len(ladderRates))
	svc.close()
	t0, s0 := time.Now(), e.now()
	svc, err = newService(e, in, scale, e.tracer)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	e.span("setup", s0, time.Since(t0), nil)
	if _, err := svc.eng.eng.RunBatch(in.roots[:8]); err != nil { // lazy first-run work stays out of the spans
		return err
	}
	svc.eng.take()
	e.tracer.Reset()
	answers, ref := step(svc, "traced.", referenceRate, seconds(0.25))
	closedAnswers, _ := svc.closedLoop(e, tf, seconds(0.125))
	sat := o.digest(closedAnswers, false)
	count(sat, len(closedAnswers))
	if len(plain.ms) == 0 || len(ref.ms) == 0 || len(sat.ms) == 0 {
		return fmt.Errorf("no query was answered")
	}

	// Harness spans: one per sweep (the operation the engine's spans nest
	// in) and one per HTTP request, carrying its query id.
	sweeps := svc.eng.take()
	for _, sw := range sweeps {
		e.span("sweep", sw.spanStart, sw.dur, map[string]int64{"batch": int64(sw.batch)})
	}
	for qid, a := range append(answers, closedAnswers...) {
		e.span("http", a.spanStart, a.done-a.sent, map[string]int64{"qid": int64(qid), "root": a.q.root})
	}
	r.layer(mOpP95, percentile(plain.ms, 0.95), "ms")
	la := analyzeSpans(e.tracer.Spans(), "harness/sweep")
	la.report(r)
	var rec stats.Recorder
	var iters, queries float64
	for _, sw := range sweeps {
		if sw.rec != nil {
			rec.Merge(sw.rec)
			iters += float64(sw.iters)
			queries += float64(sw.batch)
		}
	}
	// Per query, not per sweep: a wider batch shares its sweep's cost.
	reportCounts(r, &rec, iters, queries)
	r.layer("wire.bytes_per_op", 0, "bytes")
	r.layer("trace_overhead_share", ratio(percentile(ref.ms, 0.5)-percentile(plain.ms, 0.5), percentile(plain.ms, 0.5)), "fraction")
	r.detail("query_ms_p50.traced", percentile(ref.ms, 0.5), "ms", len(ref.ms))
	r.detail("query_ms_p50.untraced", percentile(plain.ms, 0.5), "ms", len(plain.ms))
	la.details(r)
	serveDetails(r, svc, sweeps, ref, sat)
	batchCosts(r, svc.eng.eng, in)
	return nil
}

// serveDetails reports the batcher and HTTP layers from the counters they
// export and from the timing adapter's sweep log.
func serveDetails(r *result, svc *service, sweeps []sweep, ref, sat *stepStats) {
	st := svc.batcher.Snapshot()
	r.detail("bfsd.batches", float64(st.Batches), "count", 1)
	r.detail("bfsd.mean_occupancy", ratio(st.OccupancySum, float64(st.Batches)), "count", int(st.Batches))
	r.detail("bfsd.rejected", float64(st.Rejected), "count", 1)
	r.detail("bfsd.cancelled", float64(st.Cancelled), "count", 1)
	r.detail("bfsd.sweep_errors", float64(st.Errors), "count", 1)

	bySize := map[int][]float64{}
	var sweepMs, riders float64
	for _, sw := range sweeps {
		ms := sw.dur.Seconds() * 1e3
		bySize[sw.batch] = append(bySize[sw.batch], ms)
		sweepMs += ms * float64(sw.batch)
		riders += float64(sw.batch)
	}
	sizes := make([]int, 0, len(bySize))
	for b := range bySize {
		sizes = append(sizes, b)
	}
	sort.Ints(sizes)
	for _, b := range sizes {
		r.detail(fmt.Sprintf("bfsd.batch%d.sweeps", b), float64(len(bySize[b])), "count", len(sweeps))
		r.detail(fmt.Sprintf("core.batch%d.sweep_ms_p50", b), median(bySize[b]), "ms", len(bySize[b]))
	}
	// Queue wait: what a query spent in the batcher beyond its own sweep.
	for i, ph := range []*stepStats{ref, sat} {
		name := []string{fmt.Sprintf("rate%d", referenceRate), "closed"}[i]
		r.detail("bfsd."+name+".enqueue_to_answer_ms_p50", percentile(ph.queueMs, 0.5), "ms", len(ph.queueMs))
		for _, m := range opMix {
			if xs := ph.overhead[m.op]; len(xs) > 0 {
				r.detail(fmt.Sprintf("bfsd.%s.http_overhead_ms_p50.%s", name, m.op), percentile(xs, 0.5), "ms", len(xs))
			}
		}
	}
	all := append(append([]float64(nil), ref.queueMs...), sat.queueMs...)
	r.detail("bfsd.queue_wait_ms_mean", sum(all)/float64(len(all))-ratio(sweepMs, riders), "ms", len(all))
}

// batchCosts measures a sweep directly at every batch width, and the
// collective calls one query costs at each: the amortisation the batcher
// buys. Fixed roots, so the call counts repeat exactly for a seed.
func batchCosts(r *result, eng *core.Engine, in *inputs) {
	for b := 1; b <= 8; b++ {
		var ms []float64
		var calls int64
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			res, err := eng.RunBatch(in.roots[:b])
			if err != nil {
				return
			}
			ms = append(ms, time.Since(t0).Seconds()*1e3)
			calls = commCalls(res.Recorder)
		}
		r.detail(fmt.Sprintf("core.direct_batch%d.sweep_ms_p50", b), median(ms), "ms", len(ms))
		r.detail(fmt.Sprintf("core.direct_batch%d.calls_per_query_exact", b), float64(calls)/float64(b), "count", 1)
	}
}
