package bfsd

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/rmat"
	"repro/internal/topology"
)

func testEngine(t *testing.T) *core.Engine {
	t.Helper()
	cfg := rmat.Config{Scale: 9, Seed: 31}
	eng, err := core.NewEngine(cfg.NumVertices(), rmat.Generate(cfg), core.Options{
		Mesh:       topology.Mesh{Rows: 2, Cols: 2},
		Thresholds: partition.Thresholds{E: 256, H: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func connectedRoots(eng *core.Engine, k int) []int64 {
	var roots []int64
	for v, d := range eng.Part.Degrees {
		if d > 0 {
			roots = append(roots, int64(v))
			if len(roots) == k {
				break
			}
		}
	}
	return roots
}

// countingEngine wraps the real engine and records every sweep width.
type countingEngine struct {
	eng    *core.Engine
	mu     sync.Mutex
	widths []int
}

func (c *countingEngine) RunBatch(roots []int64) (*core.BatchResult, error) {
	c.mu.Lock()
	c.widths = append(c.widths, len(roots))
	c.mu.Unlock()
	return c.eng.RunBatch(roots)
}

// TestBatcherConcurrentClients is the race-enabled service test: many
// goroutine clients firing overlapping queries across window boundaries,
// some cancelling mid-window, then a drain — every answered query must
// carry the right parent array, and the drain must answer everything it
// admitted.
func TestBatcherConcurrentClients(t *testing.T) {
	eng := testEngine(t)
	roots := connectedRoots(eng, 8)
	solo := make(map[int64][]int64, len(roots))
	for _, root := range roots {
		res, err := eng.Run(root)
		if err != nil {
			t.Fatal(err)
		}
		solo[root] = res.Parent
	}

	ce := &countingEngine{eng: eng}
	b := NewBatcher(ce, Config{Window: 2 * time.Millisecond, MaxBatch: 4, MaxQueued: 1024})

	const clients = 32
	const perClient = 6
	var answered, cancelled atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				root := roots[(c+i)%len(roots)]
				ctx := context.Background()
				if (c+i)%5 == 0 {
					// Cancel some queries mid-window.
					cctx, cancel := context.WithCancel(ctx)
					go func() {
						time.Sleep(time.Duration(c%3) * 500 * time.Microsecond)
						cancel()
					}()
					ctx = cctx
					defer cancel()
				}
				out, err := b.Submit(ctx, root)
				if err != nil {
					if err == context.Canceled {
						cancelled.Add(1)
						continue
					}
					t.Errorf("client %d: %v", c, err)
					return
				}
				answered.Add(1)
				if out.BatchSize < 1 || out.BatchSize > 4 {
					t.Errorf("batch size %d out of [1,4]", out.BatchSize)
					return
				}
				want := solo[root]
				for v := range want {
					if out.Query.Parent[v] != want[v] {
						t.Errorf("root %d parent[%d] = %d, solo %d", root, v, out.Query.Parent[v], want[v])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	b.Close()

	if answered.Load() == 0 {
		t.Fatal("no queries answered")
	}
	st := b.Snapshot()
	// A query cancelled mid-sweep is still served by the batch (the sweep
	// cannot retract a rider), so the batcher may count a few more answers
	// than clients that stayed around to read them.
	if st.Queries < answered.Load() || st.Queries > answered.Load()+cancelled.Load() {
		t.Fatalf("stats counted %d queries; clients saw %d answered + %d cancelled",
			st.Queries, answered.Load(), cancelled.Load())
	}
	if st.Batches == 0 || st.MaxBatch < 2 {
		t.Fatalf("no batching happened: %d batches, max width %d", st.Batches, st.MaxBatch)
	}
	ce.mu.Lock()
	var multi int
	for _, w := range ce.widths {
		if w > 1 {
			multi++
		}
	}
	ce.mu.Unlock()
	if multi == 0 {
		t.Fatal("every sweep ran a single query — the window never batched")
	}
	t.Logf("answered=%d cancelled=%d batches=%d multi-query=%d maxOcc=%.2f",
		answered.Load(), cancelled.Load(), st.Batches, multi, st.MaxOccupancy)

	// After Close, submits are refused.
	if _, err := b.Submit(context.Background(), roots[0]); err != ErrDraining {
		t.Fatalf("post-drain submit: %v, want ErrDraining", err)
	}
}

// gatedEngine wraps the real engine and holds the queue behind its first
// sweep: that sweep signals entered, blocks until release is closed, then
// fails, so it answers no query and the counts a test asserts are those of
// the queries it queued behind the gate. widths records every sweep.
type gatedEngine struct {
	countingEngine
	entered, release chan struct{}
	gated            bool
}

var errGate = errors.New("gate sweep")

func newGatedEngine(eng *core.Engine) *gatedEngine {
	return &gatedEngine{countingEngine: countingEngine{eng: eng},
		entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gatedEngine) RunBatch(roots []int64) (*core.BatchResult, error) {
	g.mu.Lock()
	first := !g.gated
	if first {
		g.gated = true
		g.widths = append(g.widths, len(roots))
	}
	g.mu.Unlock()
	if !first {
		return g.countingEngine.RunBatch(roots)
	}
	close(g.entered)
	<-g.release
	return nil, errGate
}

// submitGate starts the gate sweep: one query at an idle batcher, which the
// flusher takes alone. It returns once the sweep is under way.
func submitGate(t *testing.T, b *Batcher, g *gatedEngine, root int64) {
	t.Helper()
	go func() {
		if _, err := b.Submit(context.Background(), root); !errors.Is(err, errGate) {
			t.Errorf("gate query: %v, want the gate sweep's error", err)
		}
	}()
	select {
	case <-g.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("gate sweep never started")
	}
}

// waitQueued waits until n queries wait behind the running sweep.
func waitQueued(t *testing.T, b *Batcher, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		b.mu.Lock()
		queued := len(b.queue)
		b.mu.Unlock()
		if queued == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d queries queued, want %d", queued, n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// submitAll submits every root from its own goroutine and returns a wait
// that yields the outcomes once all are answered.
func submitAll(t *testing.T, b *Batcher, roots []int64) func() []*QueryOutcome {
	outs := make([]*QueryOutcome, len(roots))
	var wg sync.WaitGroup
	for i, root := range roots {
		i, root := i, root
		wg.Add(1)
		go func() {
			defer wg.Done()
			out, err := b.Submit(context.Background(), root)
			if err != nil {
				t.Errorf("root %d: %v", root, err)
				return
			}
			if out.Query.Root != root {
				t.Errorf("root %d answered as %d", root, out.Query.Root)
			}
			outs[i] = out
		}()
	}
	return func() []*QueryOutcome {
		wg.Wait()
		return outs
	}
}

// TestBatcherDrainAnswersQueued locks the SIGTERM semantics: queries queued
// when the drain starts are still answered.
func TestBatcherDrainAnswersQueued(t *testing.T) {
	eng := testEngine(t)
	roots := connectedRoots(eng, 4)
	g := newGatedEngine(eng)
	b := NewBatcher(g, Config{MaxBatch: 64, MaxQueued: 64})

	// A sweep in flight holds the four queries in the queue until the drain
	// has begun.
	submitGate(t, b, g, roots[0])
	wait := submitAll(t, b, roots)
	waitQueued(t, b, len(roots))
	closed := make(chan struct{})
	go func() {
		b.Close()
		close(closed)
	}()
	for {
		b.mu.Lock()
		draining := b.closed
		b.mu.Unlock()
		if draining {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(g.release)
	<-closed
	wait()
	st := b.Snapshot()
	if st.Queries != int64(len(roots)) {
		t.Fatalf("drain answered %d of %d", st.Queries, len(roots))
	}
	if st.MaxBatch != len(roots) {
		t.Fatalf("drain flush width %d, want %d (one batch)", st.MaxBatch, len(roots))
	}
}

// TestBatcherAdmissionControl: a full queue refuses with ErrBusy.
func TestBatcherAdmissionControl(t *testing.T) {
	eng := testEngine(t)
	roots := connectedRoots(eng, 2)
	g := newGatedEngine(eng)
	b := NewBatcher(g, Config{MaxBatch: 64, MaxQueued: 2})
	defer b.Close()
	defer close(g.release) // runs first: the drain then answers the queue

	// Fill the queue behind a sweep in flight.
	submitGate(t, b, g, roots[0])
	for i := 0; i < 2; i++ {
		root := roots[i%len(roots)]
		go b.Submit(context.Background(), root) //nolint:errcheck // answered by Close's drain
	}
	waitQueued(t, b, 2)
	if _, err := b.Submit(context.Background(), roots[0]); err != ErrBusy {
		t.Fatalf("overfull submit: %v, want ErrBusy", err)
	}
	if b.Snapshot().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", b.Snapshot().Rejected)
	}
}

// TestBatcherIdleDispatch: a query at an idle batcher starts its sweep at
// once, whatever Window says.
func TestBatcherIdleDispatch(t *testing.T) {
	eng := testEngine(t)
	root := connectedRoots(eng, 1)[0]
	b := NewBatcher(eng, Config{Window: time.Hour})
	defer b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := b.Submit(ctx, root)
	if err != nil {
		t.Fatalf("lone query: %v", err)
	}
	if out.BatchSize != 1 || out.Query.Root != root {
		t.Fatalf("lone query answered as root %d in a sweep of %d", out.Query.Root, out.BatchSize)
	}
}

// TestBatcherQueuesDuringSweep: the first query sweeps alone, and the five
// that arrive while it runs ride the next sweep together.
func TestBatcherQueuesDuringSweep(t *testing.T) {
	eng := testEngine(t)
	roots := connectedRoots(eng, 5)
	g := newGatedEngine(eng)
	b := NewBatcher(g, Config{MaxBatch: 8})
	defer b.Close()

	submitGate(t, b, g, roots[0])
	wait := submitAll(t, b, roots)
	waitQueued(t, b, len(roots))
	close(g.release)
	for _, out := range wait() {
		if out != nil && out.BatchSize != len(roots) {
			t.Errorf("query rode a sweep of %d, want %d", out.BatchSize, len(roots))
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if fmt.Sprint(g.widths) != "[1 5]" {
		t.Fatalf("sweep widths %v, want [1 5]", g.widths)
	}
}

// TestBatcherSplitsQueueByMaxBatch: ten queued queries at MaxBatch 4 run as
// sweeps of 4, 4 and 2.
func TestBatcherSplitsQueueByMaxBatch(t *testing.T) {
	eng := testEngine(t)
	roots := connectedRoots(eng, 10)
	g := newGatedEngine(eng)
	b := NewBatcher(g, Config{MaxBatch: 4})
	defer b.Close()

	submitGate(t, b, g, roots[0])
	wait := submitAll(t, b, roots)
	waitQueued(t, b, len(roots))
	close(g.release)
	wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	if fmt.Sprint(g.widths) != "[1 4 4 2]" {
		t.Fatalf("sweep widths %v, want [1 4 4 2] (the gate, then 4, 4, 2)", g.widths)
	}
}

// TestBatcherSkipsCancelledClaim: sweeps' worth of queries cancelled while
// queued must not strand the live query queued behind them. Two full claims
// are cancelled: the kick pending from the first queued query wakes the
// flusher once, so only looping on what stays queued reaches the live one.
func TestBatcherSkipsCancelledClaim(t *testing.T) {
	eng := testEngine(t)
	roots := connectedRoots(eng, 2)
	g := newGatedEngine(eng)
	b := NewBatcher(g, Config{MaxBatch: 2})
	defer b.Close()

	submitGate(t, b, g, roots[0])
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(ctx, roots[0]); !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled query: %v", err)
			}
		}()
	}
	waitQueued(t, b, 4)
	cancel()
	wg.Wait()
	wait := submitAll(t, b, roots[1:])
	waitQueued(t, b, 5)
	close(g.release)
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("the live query behind two cancelled claims was never swept")
	}
	if st := b.Snapshot(); st.Cancelled != 4 || st.Queries != 1 {
		t.Fatalf("cancelled %d, answered %d; want 4 and 1", st.Cancelled, st.Queries)
	}
}
