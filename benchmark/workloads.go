package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/comm"
	"repro/internal/stats"
	"repro/internal/trace"
)

// workload is one named set of inputs. Why it exists is in BENCHMARK.json
// and README.md; run fills e.res.
type workload struct {
	name string
	run  func(e *env) error
}

var workloads = []workload{
	{"g500-inproc-s20", runG500Inproc},
	{"g500-socket-s16", runG500Socket},
	{"serve-open-s16", runServe},
	{"analytics-ckpt-s18", runAnalytics},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return names
}

// env is the harness state of one run of one workload.
type env struct {
	cfg config
	res *result
	tmp string // scratch for sockets and checkpoints, removed at exit
	// tracer is non-nil in a traced run. The harness's own spans go on hs,
	// a rank -1 stream, and parent the program's spans by containment.
	tracer *trace.Tracer
	hs     *trace.Stream
}

// pick returns full, or the smoke-test value under -quick (SCALE 10, a
// handful of roots).
func (e *env) pick(full, quick int) int {
	if e.cfg.quick {
		return quick
	}
	return full
}

// span records a harness span that started at start (tracer clock) and ran
// for dur. Only the goroutine running the workload may call it.
func (e *env) span(name string, start int64, dur time.Duration, args map[string]int64) {
	if e.hs != nil {
		e.hs.Emit(trace.Span{Kind: trace.KindEvent, Iter: -1, Step: -1, Tag: -1,
			Name: "harness/" + name, Start: start, Dur: int64(dur), Args: args})
	}
}

func (e *env) now() int64 {
	if e.tracer == nil {
		return 0
	}
	return e.tracer.Now()
}

func runWorkload(w io.Writer, cfg config) (*result, error) {
	var wl *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames())
	}
	tmp, err := os.MkdirTemp("", "bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	e := &env{cfg: cfg, tmp: tmp, res: &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace}}
	if cfg.trace {
		e.tracer = trace.New()
		e.hs = e.tracer.NewStream(-1)
	}
	if err := wl.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r := e.res
	r.Correct = r.Failed == 0
	r.FailShare = ratio(float64(r.Failed), float64(r.Attempted))
	want := endToEndNames
	got := r.EndToEnd
	if cfg.trace {
		runtimeMetrics(r)
		order := map[string]int{}
		for i, name := range perLayerNames {
			order[name] = i
		}
		sort.SliceStable(r.PerLayer, func(i, j int) bool { return order[r.PerLayer[i].Name] < order[r.PerLayer[j].Name] })
		want, got = perLayerNames, r.PerLayer
		if err := e.writeSpans(); err != nil {
			return nil, err
		}
	}
	if err := checkMetrics(want, got); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.print(w)
	return r, nil
}

// checkMetrics holds the harness to its own contract: every promised
// metric is reported exactly once and is a finite number.
func checkMetrics(want []string, got []metric) error {
	seen := map[string]int{}
	for _, m := range got {
		seen[m.Name]++
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, m.Value)
		}
	}
	for _, name := range want {
		if seen[name] != 1 {
			return fmt.Errorf("metric %s reported %d times, want once", name, seen[name])
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics reported, %d promised", len(got), len(want))
	}
	return nil
}

// writeSpans dumps the run's merged timeline, harness spans included, in
// the existing internal/trace JSONL form.
func (e *env) writeSpans() error {
	if err := os.MkdirAll(e.cfg.outDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(e.cfg.outDir, e.cfg.workload+".trace.jsonl"))
	if err != nil {
		return err
	}
	if err := e.tracer.WriteJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// shortPath returns dir relative to the working directory when that is
// shorter: a unix socket path must fit sun_path (108 bytes), and a checkout
// may sit deep.
func shortPath(dir string) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, dir); err == nil && len(rel) < len(dir) {
			return rel
		}
	}
	return dir
}

// ---- closed-loop workloads ------------------------------------------------

// opOut is what one closed-loop operation reports back. wall covers only
// the calls into the program; hashing the output happens after it.
type opOut struct {
	wall  time.Duration
	work  int64 // numerator of work_per_s: traversed or processed edges
	iters int
	hash  uint64
	rec   *stats.Recorder // every hosted rank's accounting, merged
	parts []time.Duration // wall of each program call, when the op makes several
	// check validates the output against the oracle; called during warm-up
	// only, off the workload goroutine.
	check func() error
}

// arm is one constructed system under test.
type arm interface {
	// do runs distinct operation i.
	do(i int) (opOut, error)
	// wireBytes is the cumulative bytes this arm's sockets have sent.
	wireBytes() uint64
	// detail adds what the arm's layers export (set-up stages, wire
	// counters) after the measured phase.
	detail(r *result)
	close()
}

// closedLoop describes a closed-loop workload: one operation at a time,
// the next starting when the previous returns.
type closedLoop struct {
	in  *inputs
	ops int // distinct operations, cycled in order
	// setup constructs the system; its wall time is setup_s. tr is the
	// tracer of the traced arm, nil otherwise.
	setup func(tr *trace.Tracer) (arm, error)
	// The workload's own names for the uniform metrics.
	p50As, p95As, rateAs string
	partNames            []string
	// maxTraced caps the traced operations so the span file stays small.
	maxTraced int
}

// measureSetup constructs the system several times and returns every wall
// time (their median is setup_s) and the last system built. A set-up of
// seconds is repeated three times; a cheap one seven, where one scheduler
// hiccup would otherwise move the median.
func measureSetup[T any](e *env, build func() (T, error), discard func(T)) ([]float64, T, error) {
	var cur T
	var secs []float64
	for reps := 3; len(secs) < reps; {
		if len(secs) > 0 {
			discard(cur)
		}
		runtime.GC()
		t0, s0 := time.Now(), e.now()
		next, err := build()
		if err != nil {
			return nil, cur, fmt.Errorf("set-up: %w", err)
		}
		dt := time.Since(t0)
		e.span("setup", s0, dt, nil)
		if secs = append(secs, dt.Seconds()); dt < 500*time.Millisecond {
			reps = 7
		}
		cur = next
	}
	return secs, cur, nil
}

// phase is the accounting of one measured stretch of a closed loop.
type phase struct {
	ms      []float64 // per-op wall, milliseconds
	invRate float64   // Σ wall seconds ÷ work, for the harmonic mean
	parts   [][]float64
	rec     stats.Recorder
	iters   int64
}

func (p *phase) add(o opOut) {
	p.ms = append(p.ms, o.wall.Seconds()*1e3)
	if o.work > 0 {
		p.invRate += o.wall.Seconds() / float64(o.work)
	}
	p.iters += int64(o.iters)
	p.rec.Merge(o.rec)
	for i, d := range o.parts {
		if len(p.parts) <= i {
			p.parts = append(p.parts, nil)
		}
		p.parts[i] = append(p.parts[i], d.Seconds())
	}
}

func (cl *closedLoop) run(e *env) error {
	r := e.res
	r.Roots = cl.in.roots
	r.detail("rmat.gen_s", cl.in.genSeconds, "s", 1)

	setups, a, err := measureSetup(e, func() (arm, error) { return cl.setup(nil) }, func(a arm) { a.close() })
	if err != nil {
		return err
	}
	defer func() { a.close() }()

	// Warm-up: every distinct operation once, untimed. It fills caches,
	// checks each output against the oracle, records the hash the timed
	// repeats are compared with, and yields the counts that repeat exactly
	// for a seed (each operation contributes once, whatever the run length).
	hashes := make([]uint64, cl.ops)
	var exact phase
	chk := newChecker()
	for i := 0; i < cl.ops; i++ {
		o, err := a.do(i)
		r.Attempted++
		if err != nil {
			r.Failed++
			fmt.Fprintf(os.Stderr, "benchmark: warm-up op %d: %v\n", i, err)
			continue
		}
		hashes[i] = o.hash
		exact.add(o)
		chk.check(o.check)
	}
	for _, err := range chk.wait() {
		r.Failed++
		fmt.Fprintln(os.Stderr, "benchmark: wrong output:", err)
	}

	measure := func(a arm, d time.Duration, maxOps int, traced bool) *phase {
		p := &phase{}
		deadline := time.Now().Add(d)
		for i := 0; time.Now().Before(deadline) && (maxOps == 0 || i < maxOps); i++ {
			s0 := e.now()
			o, err := a.do(i % cl.ops)
			r.Attempted++
			if err != nil || o.hash != hashes[i%cl.ops] {
				r.Failed++
				fmt.Fprintf(os.Stderr, "benchmark: op %d: err=%v hash=%x want %x\n", i, err, o.hash, hashes[i%cl.ops])
				continue
			}
			if traced {
				e.span("op", s0, o.wall, map[string]int64{"op": int64(i % cl.ops)})
			}
			p.add(o)
		}
		return p
	}
	seconds := time.Duration(e.cfg.seconds * float64(time.Second))

	if !e.cfg.trace {
		p := measure(a, seconds, 0, false)
		if len(p.ms) == 0 {
			return fmt.Errorf("no operation succeeded")
		}
		r.endToEnd(mSetup, "", median(setups), "s", len(setups))
		r.endToEnd(mOpP50, cl.p50As, percentile(p.ms, 0.50), "ms", len(p.ms))
		r.endToEnd(mThroughput, cl.rateAs, ratio(float64(len(p.ms)), p.invRate), "1/s", len(p.ms))
		r.detail(cl.p95As, percentile(p.ms, 0.95), "ms", len(p.ms))
		cl.details(r, p, &exact)
		a.detail(r)
		return nil
	}

	// Traced run: a short untraced stretch first, so that the tracing
	// overhead is a difference within one process, then the traced arm.
	plain := measure(a, seconds/4, 0, false)
	a.close()
	runtime.GC()
	t0, s0 := time.Now(), e.now()
	ta, err := cl.setup(e.tracer)
	if err != nil {
		return fmt.Errorf("traced set-up: %w", err)
	}
	e.span("setup", s0, time.Since(t0), nil)
	a = ta
	for i := 0; i < cl.ops && i < 4; i++ { // lazy first-run work stays out of the spans
		if _, err := a.do(i); err != nil {
			return fmt.Errorf("traced warm-up: %w", err)
		}
	}
	e.tracer.Reset()
	wire0 := a.wireBytes()
	p := measure(a, seconds/2, cl.maxTraced, true)
	r.layer("wire.bytes_per_op", ratio(float64(a.wireBytes()-wire0), float64(len(p.ms))), "bytes")
	if len(p.ms) == 0 || len(plain.ms) == 0 {
		return fmt.Errorf("no operation succeeded")
	}
	r.layer(mOpP95, percentile(plain.ms, 0.95), "ms")
	la := analyzeSpans(e.tracer.Spans(), "harness/op")
	la.report(r)
	reportCounts(r, &exact.rec, float64(exact.iters), float64(len(exact.ms)))
	r.layer("trace_overhead_share", ratio(percentile(p.ms, 0.5)-percentile(plain.ms, 0.5), percentile(plain.ms, 0.5)), "fraction")
	r.detail(cl.p50As+".traced", percentile(p.ms, 0.5), "ms", len(p.ms))
	r.detail(cl.p50As+".untraced", percentile(plain.ms, 0.5), "ms", len(plain.ms))
	r.detail(cl.rateAs+".untraced", ratio(float64(len(plain.ms)), plain.invRate), "1/s", len(plain.ms))
	la.details(r)
	cl.details(r, p, &exact)
	a.detail(r)
	return nil
}

// commCalls sums a recorder's collective calls over kinds.
func commCalls(rec *stats.Recorder) int64 {
	vol := rec.CommBreakdown()
	var calls int64
	for _, c := range vol.Calls {
		calls += c
	}
	return calls
}

// reportCounts adds the per-operation count layers from a recorder that
// accumulated n operations taking iters iterations in all. Fed the warm-up
// pass, which visits each distinct operation exactly once, the counts
// repeat exactly for a seed.
func reportCounts(r *result, rec *stats.Recorder, iters, n float64) {
	vol := rec.CommBreakdown()
	intra, inter := vol.Totals()
	r.layer("core.iterations_per_op", ratio(iters, n), "count")
	r.layer("core.edges_touched_per_op", ratio(float64(rec.TotalEdges()), n), "count")
	r.layer("comm.calls_per_op", ratio(float64(commCalls(rec)), n), "count")
	r.layer("comm.intra_bytes_per_op", ratio(float64(intra), n), "bytes")
	r.layer("comm.inter_bytes_per_op", ratio(float64(inter), n), "bytes")
	r.layer("checkpoint.bytes_per_op", ratio(float64(rec.FailStop.CheckpointBytes), n), "bytes")
}

// details reports the workload-specific numbers the program's own counters
// give: time and edges per kernel component and direction, traffic per
// collective kind, per-call walls. Times come from the measured phase p,
// counts from the exactly repeating warm-up pass.
func (cl *closedLoop) details(r *result, p, exact *phase) {
	for i, name := range cl.partNames {
		if i < len(p.parts) {
			r.detail("core."+name+"_s", median(p.parts[i]), "s", len(p.parts[i]))
		}
	}
	ops := float64(len(p.ms))
	for ph := stats.Phase(0); ph < stats.NumPhases; ph++ {
		for d := stats.Direction(0); int(d) < stats.NumDirections; d++ {
			if t := p.rec.Time[ph][d]; t > 0 {
				name := fmt.Sprintf("core.%s.%s", ph, d)
				if d == stats.DirNone {
					name = fmt.Sprintf("core.%s", ph)
				}
				r.detail(name+".rank_s_per_op", t.Seconds()/ops, "s", len(p.ms))
			}
		}
		if ed := p.rec.EdgesTouched[ph]; ed > 0 {
			r.detail(fmt.Sprintf("core.%s.edges_per_rank_s", ph), ratio(float64(ed), p.rec.PhaseTime(ph).Seconds()), "1/s", len(p.ms))
		}
		if ed := exact.rec.EdgesTouched[ph]; ed > 0 {
			r.detail(fmt.Sprintf("core.%s.edges_touched_exact", ph), float64(ed), "count", len(exact.ms))
		}
	}
	vol := exact.rec.CommBreakdown()
	for k := comm.Kind(0); k < comm.NumKinds; k++ {
		if vol.Calls[k] == 0 {
			continue
		}
		r.detail(fmt.Sprintf("comm.%s.calls_exact", k), float64(vol.Calls[k]), "count", len(exact.ms))
		r.detail(fmt.Sprintf("comm.%s.intra_bytes_exact", k), float64(vol.IntraBytes[k]), "bytes", len(exact.ms))
		r.detail(fmt.Sprintf("comm.%s.inter_bytes_exact", k), float64(vol.InterBytes[k]), "bytes", len(exact.ms))
	}
	r.detail("core.iterations_exact", float64(exact.iters), "count", len(exact.ms))
	fs := p.rec.FailStop
	if fs.CheckpointSegments > 0 {
		r.detail("checkpoint.segments_per_op", float64(fs.CheckpointSegments)/ops, "count", len(p.ms))
		r.detail("checkpoint.dropped", float64(fs.CheckpointDropped), "count", len(p.ms))
		r.detail("checkpoint.errors", float64(fs.CheckpointErrors), "count", len(p.ms))
	}
}
