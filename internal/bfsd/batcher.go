package bfsd

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// Engine is the traversal backend: one batched multi-source sweep per call,
// over query keys (core.Query.Key: a plain root asks for the full tree).
// Satisfied by *core.Engine and graph500.Runner via thin adapters; narrowed
// to an interface so the batcher tests can observe batching decisions.
type Engine interface {
	RunBatch(roots []int64) (*core.BatchResult, error)
}

// Config shapes the sweep width and admission control.
type Config struct {
	// Window is ignored: a query that finds the flusher idle starts its
	// sweep at once, and queries that arrive during a sweep batch behind it
	// (see Batcher), so no timer ever delays one. The field remains only
	// because the benchmark harness still sets it.
	Window time.Duration
	// MaxBatch is the sweep width: the most queued queries one sweep takes.
	// Default 8. The daemon sizes it from perfmodel.MaxBatchQueries against
	// its memory budget.
	MaxBatch int
	// MaxQueued is the admission bound: Submit refuses (ErrBusy) once this
	// many queries are waiting, so overload surfaces as fast 429s instead of
	// unbounded queueing. Default 4*MaxBatch.
	MaxQueued int
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 4 * c.MaxBatch
	}
	return c
}

// Submit outcomes.
var (
	// ErrBusy is admission control refusing a query: the queue is full.
	ErrBusy = errors.New("bfsd: query queue full")
	// ErrDraining is a Submit against a closing batcher.
	ErrDraining = errors.New("bfsd: draining")
)

// QueryOutcome is one query's answer plus its batch context.
type QueryOutcome struct {
	Query *core.Result
	// BatchSize is how many queries rode the same sweep; Occupancy the
	// sweep's mean live-query count per iteration.
	BatchSize int
	Occupancy float64
	// Latency is enqueue-to-answer as the batcher saw it.
	Latency time.Duration
}

type pendingQuery struct {
	key int64
	ctx context.Context
	enq time.Time
	ch  chan queryDelivery // buffered 1: delivery never blocks on the client
}

type queryDelivery struct {
	out *QueryOutcome
	err error
}

// Batcher folds concurrent Submit calls into batched multi-source sweeps.
// One flusher goroutine owns the engine, so sweeps are serialized, and it is
// work-conserving: a query that finds it idle starts a sweep of one at once,
// and queries that arrive during a sweep queue up until it ends, when the
// flusher takes up to MaxBatch of them into the next. Waiting for company at
// an idle engine would only add latency: under load the queue refills during
// every sweep anyway. Queries cancelled before their sweep starts are dropped
// from it; cancellation mid-sweep cannot stop the sweep (the answer is
// discarded at delivery).
type Batcher struct {
	eng Engine
	cfg Config

	mu     sync.Mutex
	queue  []*pendingQuery
	closed bool
	stats  Stats

	kick chan struct{}
	quit chan struct{}
	done chan struct{}
}

// Stats is the batcher's service-level accounting; see Snapshot.
type Stats struct {
	Queries   int64 // answered
	Batches   int64 // sweeps run
	Rejected  int64 // refused by admission control
	Cancelled int64 // dropped before their sweep started
	Errors    int64 // sweep failures (every rider sees the error)

	OccupancySum float64
	MaxOccupancy float64
	MaxBatch     int // widest batch actually run

	// Latencies holds per-query enqueue-to-answer seconds, most recent
	// maxLatencySamples (ring).
	Latencies []float64
	latIdx    int
	latFull   bool
}

const maxLatencySamples = 8192

// NewBatcher starts the flusher. Close releases it.
func NewBatcher(eng Engine, cfg Config) *Batcher {
	b := &Batcher{
		eng:  eng,
		cfg:  cfg.withDefaults(),
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go b.loop()
	return b
}

// Submit enqueues one query and blocks until its batch answers, the context
// cancels, or the batcher refuses it (ErrBusy / ErrDraining). key is the
// query's core.Query.Key: a plain root asks for the full tree, a packed
// (root, target) pair for the target's place in it.
func (b *Batcher) Submit(ctx context.Context, key int64) (*QueryOutcome, error) {
	p := &pendingQuery{key: key, ctx: ctx, enq: time.Now(), ch: make(chan queryDelivery, 1)}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, ErrDraining
	}
	if len(b.queue) >= b.cfg.MaxQueued {
		b.stats.Rejected++
		b.mu.Unlock()
		return nil, ErrBusy
	}
	b.queue = append(b.queue, p)
	first := len(b.queue) == 1
	b.mu.Unlock()

	// Only the query that makes the queue non-empty kicks: until the queue
	// is empty again, the flusher is either woken by that kick or still
	// taking batches, and takes this one with them.
	if first {
		b.signal()
	}

	select {
	case d := <-p.ch:
		return d.out, d.err
	case <-ctx.Done():
		// The flusher may have picked the query up already; prefer a real
		// answer if one races in.
		select {
		case d := <-p.ch:
			return d.out, d.err
		default:
			return nil, ctx.Err()
		}
	}
}

// Close drains: no new queries are admitted, every already-queued query is
// swept, and Close returns once the flusher has answered them all.
func (b *Batcher) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		<-b.done
		return
	}
	b.closed = true
	b.mu.Unlock()
	close(b.quit)
	<-b.done
}

// Snapshot copies the current stats (latency ring flattened, oldest first).
func (b *Batcher) Snapshot() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	if b.stats.latFull {
		s.Latencies = append(append([]float64(nil),
			b.stats.Latencies[b.stats.latIdx:]...), b.stats.Latencies[:b.stats.latIdx]...)
	} else {
		s.Latencies = append([]float64(nil), b.stats.Latencies...)
	}
	return s
}

func (b *Batcher) signal() {
	select {
	case b.kick <- struct{}{}:
	default:
	}
}

func (b *Batcher) loop() {
	defer close(b.done)
	for {
		select {
		case <-b.kick:
		case <-b.quit:
		}
		for {
			batch, left := b.take()
			if len(batch) > 0 {
				b.runBatch(batch)
			}
			if left == 0 {
				break
			}
		}
		b.mu.Lock()
		exit := b.closed && len(b.queue) == 0
		b.mu.Unlock()
		if exit {
			return
		}
	}
}

// take claims up to MaxBatch queries, answering cancelled ones on the way,
// and reports how many stay queued. A claim whose queries were all cancelled
// is empty while others may still wait, so the flusher loops on left.
func (b *Batcher) take() (live []*pendingQuery, left int) {
	b.mu.Lock()
	n := min(len(b.queue), b.cfg.MaxBatch)
	claimed := b.queue[:n:n]
	b.queue = append([]*pendingQuery(nil), b.queue[n:]...)
	left = len(b.queue)
	b.mu.Unlock()

	live = claimed[:0]
	for _, p := range claimed {
		if p.ctx.Err() != nil {
			p.ch <- queryDelivery{err: p.ctx.Err()}
			b.mu.Lock()
			b.stats.Cancelled++
			b.mu.Unlock()
			continue
		}
		live = append(live, p)
	}
	return live, left
}

func (b *Batcher) runBatch(batch []*pendingQuery) {
	keys := make([]int64, len(batch))
	for i, p := range batch {
		keys[i] = p.key
	}
	res, err := b.eng.RunBatch(keys)
	now := time.Now()

	b.mu.Lock()
	b.stats.Batches++
	if err != nil {
		b.stats.Errors += int64(len(batch))
	} else {
		b.stats.Queries += int64(len(batch))
		b.stats.OccupancySum += res.AvgOccupancy
		if res.AvgOccupancy > b.stats.MaxOccupancy {
			b.stats.MaxOccupancy = res.AvgOccupancy
		}
		if len(batch) > b.stats.MaxBatch {
			b.stats.MaxBatch = len(batch)
		}
		for _, p := range batch {
			b.recordLatency(now.Sub(p.enq).Seconds())
		}
	}
	b.mu.Unlock()

	for i, p := range batch {
		if err != nil {
			p.ch <- queryDelivery{err: err}
			continue
		}
		p.ch <- queryDelivery{out: &QueryOutcome{
			Query:     res.Queries[i],
			BatchSize: len(batch),
			Occupancy: res.AvgOccupancy,
			Latency:   now.Sub(p.enq),
		}}
	}
}

// recordLatency appends to the bounded ring; callers hold b.mu.
func (b *Batcher) recordLatency(sec float64) {
	if len(b.stats.Latencies) < maxLatencySamples {
		b.stats.Latencies = append(b.stats.Latencies, sec)
		return
	}
	b.stats.Latencies[b.stats.latIdx] = sec
	b.stats.latIdx = (b.stats.latIdx + 1) % maxLatencySamples
	b.stats.latFull = true
}
