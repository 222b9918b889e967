package core

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/bitmap"
	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/partition"
	"repro/internal/stats"
	"repro/internal/trace"
)

// One iteration is numSteps steps (see valueBase.step), each ending at a
// consistent collective boundary so a retry can re-enter at the lowest
// globally failed step, short-circuiting everything that already completed
// cleanly on every rank. The delayed reduction after convergence is one more
// step, stepReduce, run once under the same retry protocol.
const (
	numSteps   = 4
	stepReduce = numSteps
)

// drainBit is the iteration vote's graceful-drain flag, carried in the same
// OR-word as the failed-step mask (word 0). Bit 63 can never collide with a
// step index, and the vote strips it before any step-mask inspection.
const drainBit uint64 = 1 << 63

// lRowMasks are one rank's word masks over its owned L block: "row is
// non-empty", one per L-keyed CSR, and isHub, the owned vertices that are hubs
// (their L slots are shadowed by the delegates). They are derived from the
// rank graph at engine construction and kept beside it rather than in it, so
// the checkpoint graph tier's format does not change.
type lRowMasks struct{ toE, toH, toL, isHub []uint64 }

// rowMask marks the rows of a dense CSR row-pointer array that hold at least
// one edge, as the words of an n-bit bitmap.
func rowMask(ptr []int64, n int) []uint64 {
	has := bitmap.New(n)
	for li := 0; li+1 < len(ptr); li++ {
		if ptr[li] != ptr[li+1] {
			has.Set(li)
		}
	}
	return has.Words()
}

// rankScratch holds one rank's exchange buffers on the engine, so what one
// iteration or run grew the next reuses: every user re-slices to [:0] before
// filling. Reuse right after a collective returns is safe because receivers
// copy a sender's buffer before the collective's closing barrier. The planes
// of a batch share their rank's scratch; they run one at a time, and so do
// the workloads of successive runs.
type rankScratch struct {
	ups                  []comm.SparseUpdate // sparse pushes parked until their flush
	pushParts            [][]pushMsg         // dense send buffers; components ship one at a time
	distParts            [][]distMsg
	sendWords, recvWords []uint64 // pull-frontier gathers
	fwdAt                []int    // forwardL2L's run offsets

	touched  touchedHubs // delegates changed since the last syncTouched
	hubRecs  []pushMsg   // syncTouched's packed records
	distRecs []distMsg
}

// resetParts returns *buf resized to n empty parts, each keeping its capacity.
func resetParts[T any](buf *[][]T, n int) [][]T {
	for len(*buf) < n {
		*buf = append(*buf, nil)
	}
	parts := (*buf)[:n]
	for i := range parts {
		parts[i] = parts[i][:0]
	}
	return parts
}

// commBytes is the recorder's total observed data-plane traffic; deltas of it
// across an iteration feed the sparse-tail byte ceiling.
func commBytes(rec *stats.Recorder) int64 {
	v := rec.CommBreakdown()
	return v.TotalBytes()
}

func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// clock0 anchors the untraced clock (see now).
var clock0 = time.Now()

// now reads the rank's one clock, in nanoseconds: the tracer's when tracing,
// so a span and the recorder observation it mirrors share their reads.
func (b *valueBase) now() int64 {
	if b.tr != nil {
		return b.tr.Now()
	}
	return int64(time.Since(clock0))
}

// observed runs fn — a kernel, or the collectives of one sync or reduce point
// — timing it and attributing its traffic delta and edge touches to phase on
// the recorder and, when tracing, to sp: the caller fills in what names the
// span (Kind, Name, Tag, Dir, Args), observed the coordinates and
// measurements. One pair of clock reads times both.
func (b *valueBase) observed(phase stats.Phase, dir stats.Direction, sp trace.Span, fn func() (int64, error)) error {
	start := b.now()
	base := b.r.Stats
	edges, err := fn()
	dur := b.now() - start
	delta := b.r.Stats.Delta(&base)
	b.rec.Observe(phase, dir, time.Duration(dur), delta, edges)
	if b.tr != nil {
		sp.Epoch, sp.Iter, sp.Step, sp.Attempt = b.r.Epoch(), b.curIter, b.curStep, b.curAttempt
		sp.Start, sp.Dur, sp.Edges = start, dur, edges
		sp.IntraBytes, sp.InterBytes = delta.Totals()
		if err != nil {
			sp.Err = 1
		}
		b.tr.Emit(sp)
	}
	return err
}

// observeCollective is observed for a sync or reduce point, which touches no
// edges and has no direction.
func (b *valueBase) observeCollective(phase stats.Phase, kind trace.Kind, name string, fn func() error) error {
	return b.observed(phase, stats.DirNone, trace.Span{Kind: kind, Name: name},
		func() (int64, error) { return 0, fn() })
}

// vote is the retry-boundary agreement over the reliable control plane.
// Word 0 ORs every rank's failed-step mask; the remaining words OR a
// dead-rank bitmask assembled from typed collective errors plus the rank's
// own death latch — a dead rank keeps participating in control collectives,
// so the "zombie" acts as its own failure detector and no timeout is needed
// for unanimous detection. Returns the global step mask and the agreed
// dead-rank list.
func (b *valueBase) vote(stepMask uint64, errs ...error) (uint64, []int) {
	ranks := b.e.Opt.Ranks
	words := make([]uint64, 1+(ranks+63)/64)
	words[0] = stepMask
	for _, err := range errs {
		var ce *comm.CollectiveError
		if errors.As(err, &ce) && errors.Is(ce.Err, comm.ErrRankDead) {
			words[1+ce.Rank/64] |= 1 << uint(ce.Rank%64)
		}
	}
	if b.r.Dead() {
		words[1+b.r.ID/64] |= 1 << uint(b.r.ID%64)
	}
	agg := comm.ControlOrWords(b.r.World, words)
	var dead []int
	for i := 0; i < ranks; i++ {
		if agg[1+i/64]&(1<<uint(i%64)) != 0 {
			dead = append(dead, i)
		}
	}
	return agg[0], dead
}

// runComp tags and runs one component kernel under the iteration's chosen
// direction — timing it and attributing its traffic delta and edge touches,
// or doing the skip bookkeeping — the body of the base's step dispatcher.
// args ride on the kernel's span (BFS names the plane's query).
func (b *valueBase) runComp(c partition.Component, dir stats.Direction, args map[string]int64, fn func() (int64, error)) error {
	b.r.SetTag(int(c))
	if dir == stats.DirSkip {
		if b.tr != nil {
			b.tr.Emit(trace.Span{Kind: trace.KindKernel, Epoch: b.r.Epoch(),
				Iter: b.curIter, Step: b.curStep, Attempt: b.curAttempt,
				Tag: int(c), Name: c.String(), Dir: "skip", Start: b.tr.Now(), Args: args})
		}
		return nil
	}
	return b.observed(stats.PhaseOfComponent(c), dir, trace.Span{Kind: trace.KindKernel,
		Tag: int(c), Name: c.String(), Dir: dir.String(), Args: args}, fn)
}

// loadCheckpoint rebuilds the rank's declared state by replaying the delta
// chain up to resumeIter. A replaced rank slot (its predecessor fail-stopped
// last epoch) additionally reloads and verifies its graph-tier partition —
// the read a rejoining replacement pays, and the bulk of BytesRestored.
// The log is cut after the resume point's record: the re-executed iterations
// append theirs again, and a stale or torn tail must not sit in between.
func (b *valueBase) loadCheckpoint() error {
	sp := &b.spec
	cs, n, err := b.scope.Replay(b.r.ID, b.resumeIter, len(sp.hubF), len(sp.lF), len(sp.pHub), len(sp.pL))
	b.rec.FailStop.BytesRestored += n
	if err != nil {
		return err
	}
	if b.replaced && b.store != nil {
		var rg partition.RankGraph
		gn, err := b.store.ReadRankGraph(b.r.ID, &rg)
		b.rec.FailStop.BytesRestored += gn
		if err != nil {
			return err
		}
		if rg.LocalN != b.rg.LocalN {
			return fmt.Errorf("core: graph tier for rank %d has LocalN %d, want %d",
				b.r.ID, rg.LocalN, b.rg.LocalN)
		}
	}
	copy(sp.hubF, cs.HubFrontier)
	copy(sp.hubV, cs.HubVisited)
	copy(sp.lF, cs.LFrontier)
	copy(sp.lV, cs.LVisited)
	copy(sp.pHub, cs.ParentHub)
	copy(sp.pL, cs.ParentL)
	*sp.activeL, *sp.visitL = cs.ActiveL, cs.VisitL
	b.resumeState = cs
	return b.scope.Truncate(b.r.ID, b.resumeIter)
}

// capture queues the declared state as of completing iteration iter to the
// async checkpoint writer; the synchronous cost is one memcpy into a capture
// buffer. must forces it through (the bootstrap segment, without which the
// chain is useless) instead of dropping when both buffers are in flight.
func (b *valueBase) capture(iter int64, must bool) {
	var s0 int64
	if b.tr != nil {
		s0 = b.tr.Now()
	}
	sp := &b.spec
	ok := b.writer.Checkpoint(iter, must,
		sp.hubF, sp.hubV, sp.lF, sp.lV, sp.pHub, sp.pL, *sp.activeL, *sp.visitL)
	if b.tr != nil {
		span := trace.Span{Kind: trace.KindCheckpoint, Epoch: b.r.Epoch(),
			Iter: iter, Step: -1, Name: "capture", Start: s0, Dur: b.tr.Now() - s0}
		if !ok {
			span.Args = map[string]int64{"dropped": 1}
		}
		b.tr.Emit(span)
	}
}

// runLoop is the engine's main loop for one world epoch, the one every
// workload rides. All ranks execute it in lockstep; every collective below is
// reached by every rank in the same order (direction choices derive from
// globally consistent state). Each iteration runs its four steps under the
// retry protocol (retried); after convergence the delayed reduction (Section
// 5) runs as one more step under the same protocol. A fail-stop there still
// aborts to the engine, which replays the final iteration from checkpoint and
// reduces under the new world. maxIter without convergence aborts with
// ErrNoConvergence.
func (b *valueBase) runLoop() ([]IterTrace, error) {
	// Epoch setup point: a rank can die before the traversal proper — the
	// "failure during partitioning/setup" case — modeled as a tagged barrier
	// at epoch start plus a death vote. Only run under a fault transport;
	// a reliable world has nothing to detect.
	if b.r.Faulty() {
		b.r.SetIter(-1)
		b.r.SetTag(TagSetup)
		berr := b.r.World.Barrier()
		if _, dead := b.vote(0, berr); len(dead) > 0 {
			return nil, &deadWorldError{dead: dead}
		}
		// A transient setup-barrier error is harmless: the barrier carries
		// no state and the vote just agreed nobody died.
	}

	startIter := 0
	var initErr error
	if b.scope != nil && b.resumeIter >= -1 {
		s0 := b.now()
		initErr = b.loadCheckpoint()
		dur := b.now() - s0
		b.replayDur = time.Duration(dur)
		if b.tr != nil {
			sp := trace.Span{Kind: trace.KindRecovery, Iter: b.resumeIter, Step: -1,
				Name: "replay", Start: s0, Dur: dur, Bytes: b.rec.FailStop.BytesRestored}
			if initErr != nil {
				sp.Err = 1
			}
			b.tr.Emit(sp)
		}
		startIter = int(b.resumeIter) + 1
	} else {
		// A fresh start over an existing scope (e.g. a chain too torn to
		// resume) needs no clearing: a Writer without a resume state restarts
		// the rank's log from byte zero.
		initErr = b.spec.wl.bootstrap()
	}
	if b.scope != nil && initErr == nil {
		// The async writer goroutine records on its own forked stream: a
		// trace stream is single-writer and the rank goroutine keeps b.tr.
		var wtr *trace.Stream
		if b.tr != nil {
			wtr = b.tr.Fork()
		}
		sp := &b.spec
		b.writer, initErr = checkpoint.NewWriter(b.scope, b.r.ID,
			len(sp.hubF), len(sp.lF), len(sp.pHub), len(sp.pL), b.resumeState, wtr)
	}
	if b.writer != nil {
		defer func() {
			ws := b.writer.Close()
			b.rec.FailStop.CheckpointSegments += ws.Segments
			b.rec.FailStop.CheckpointBytes += ws.Bytes
			b.rec.FailStop.CheckpointDropped += ws.Dropped
			b.rec.FailStop.CheckpointErrors += ws.Errors
		}()
	}
	if b.scope != nil {
		// Init vote: a rank aborting on a local replay/setup error must not
		// leave the others stuck in the iteration loop's collectives. Rides
		// the control plane, with or without a fault transport.
		var bad int64
		if initErr != nil {
			bad = 1
		}
		if comm.ControlSumInt64(b.r.World, bad) > 0 {
			if initErr == nil {
				initErr = errRemoteRank
			}
			return nil, fmt.Errorf("core: checkpoint init failed: %w", initErr)
		}
		if b.resumeState == nil {
			b.capture(-1, true)
		}
	} else if initErr != nil {
		return nil, initErr
	}

	var itrace []IterTrace
	for iter := startIter; iter < b.maxIter; iter++ {
		b.r.SetIter(int64(iter))
		b.curIter = int64(iter)
		b.iterBytesBase = commBytes(b.rec)
		it := &b.iter
		*it = IterTrace{}
		b.spec.wl.beginIter(it)
		drained, err := b.retried(0, numSteps)
		if err != nil {
			return itrace, err
		}
		itrace = append(itrace, *it)
		if b.spec.wl.endIter(it) {
			_, err := b.retried(stepReduce, stepReduce+1)
			return itrace, err
		}
		if drained {
			// Graceful drain: the iteration committed on every rank, so a
			// must-write checkpoint here is a clean resume point. The engine
			// keeps the run scope on this error, and a successor run replays
			// from exactly this iteration via SetResumeFrom.
			if b.writer != nil {
				b.capture(int64(iter), true)
			}
			return itrace, fmt.Errorf("core: drain requested at iteration %d: %w", iter, ErrDrained)
		}
		if b.writer != nil && iter%b.e.Opt.CheckpointEvery == 0 {
			b.capture(int64(iter), false)
		}
	}
	return itrace, fmt.Errorf("core: frontier still active after %d iterations: %w",
		b.maxIter, ErrNoConvergence)
}

// retried runs steps [g, end) — an iteration's four, or the reduction —
// under the one retry protocol, and reports whether a drain was agreed.
//
// In a reliable world it just runs them. Under a fault transport each step is
// snapshotted on entry, collective errors are collected without breaking the
// collective schedule, and at the end all ranks vote over the reliable
// control plane. The vote carries a failed-step mask — transient errors
// restore to the lowest globally failed step and re-execute only from there,
// so steps that completed cleanly on every rank are not re-run — and a
// dead-rank bitmask. Death is the one non-retryable verdict: every rank
// returns a *deadWorldError and the engine rebuilds the world at the next
// epoch and resumes from checkpoint. Retry is idempotent because each step's
// snapshot covers its non-monotone state. MaxRetries consecutive failed votes
// abort with ErrNoConvergence.
//
// Drain is an iteration-boundary decision: only an iteration's steps poll
// Opt.Drain, and the request rides the vote, in a reliable world too, so
// every rank agrees on it.
func (b *valueBase) retried(g, end int) (drained bool, err error) {
	faulty := b.r.Faulty()
	drain := b.e.Opt.Drain
	if end > numSteps { // the reduction
		drain = nil
	}
	start := time.Now()
	for attempt := 0; ; {
		b.curAttempt = attempt
		var errs [stepReduce + 1]error
		var failMask uint64
		for ; g < end; g++ {
			b.curStep = g
			if faulty {
				b.snapshot(g)
			}
			if errs[g] = b.step(g); errs[g] != nil {
				failMask |= 1 << uint(g)
			}
		}
		if !faulty && drain == nil {
			return false, firstErr(errs[:])
		}
		// A drain request rides the vote's step-mask word: it needs the same
		// any-rank-wins agreement as a failed step, and the bit is far above
		// any real step index. A reliable world votes for it alone: its
		// collectives cannot fail, but the closure may flip between two
		// ranks' polls, and a rank leaving the loop alone would strand the
		// others in the next iteration's collectives.
		if drain != nil && drain() {
			failMask |= drainBit
		}
		// Agreement: which steps failed anywhere, and did anyone die?
		gmask, dead := b.vote(failMask, errs[:]...)
		if len(dead) > 0 {
			return false, &deadWorldError{dead: dead}
		}
		if gmask&drainBit != 0 {
			// Strip the drain verdict before the failed-step checks below:
			// drain is not a failure and must not trigger a retry, and
			// TrailingZeros on a mask holding only drainBit would index a
			// nonexistent step.
			drained = true
			gmask &^= drainBit
		}
		if gmask == 0 {
			return drained, nil
		}
		attempt++
		b.retries++
		if attempt > b.e.Opt.MaxRetries {
			err := firstErr(errs[:])
			if err == nil {
				err = errRemoteRank
			}
			b.recovery += time.Since(start)
			what := fmt.Sprintf("iteration %d", b.curIter)
			if end > numSteps {
				what = "parent reduction"
			}
			return false, fmt.Errorf("core: %s still failing after %d retries: %w: %w",
				what, b.e.Opt.MaxRetries, ErrNoConvergence, err)
		}
		// Re-enter at the lowest step any rank failed: steps below it
		// completed cleanly on every rank, so their work stands. Every rank
		// restores the same step's snapshot, keeping the collective schedule
		// from there identical.
		g = bits.TrailingZeros64(gmask)
		b.restore(g)
		if b.tr != nil {
			b.tr.Emit(trace.Span{Kind: trace.KindRecovery, Iter: b.curIter,
				Step: g, Attempt: attempt, Name: "retry", Start: b.tr.Now(),
				Args: map[string]int64{"step_mask": int64(gmask)}})
		}
		time.Sleep(b.e.Opt.RetryBackoff << uint(attempt-1))
		b.recovery += time.Since(start)
		start = time.Now()
	}
}
