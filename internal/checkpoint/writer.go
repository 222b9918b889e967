package checkpoint

import (
	"fmt"
	"os"
	"sync/atomic"

	"repro/internal/trace"
)

// MaxLag is the writer's staleness bound in captures: of any MaxLag
// consecutive Checkpoint calls at least one — the same one on every rank —
// is committed. See Writer.
const MaxLag = 2

// WriterStats summarizes one Writer's lifetime.
type WriterStats struct {
	Segments int64 // delta segments committed
	Bytes    int64 // bytes committed
	Dropped  int64 // captures skipped because both buffers were in flight
	Errors   int64 // segments that failed to encode or commit
}

// Writer checkpoints one rank's iteration state asynchronously. The caller
// copies its live state into one of two capture buffers (the only
// synchronous cost — a memcpy of the bitmap words and parent arrays) and the
// writer goroutine does everything expensive off the critical path: diffing
// the capture against its shadow of the last committed state, gob-encoding
// the sparse delta, and committing the CRC'd segment by atomic rename. When
// both buffers are still in flight a non-mandatory capture is dropped rather
// than blocking a kernel — the delta chain stays consistent because diffs
// are always taken against the last *committed* state, so the next capture
// simply carries the skipped iteration's changes too.
//
// Staleness contract: drops are bounded by back-pressure, not by timing.
// Every MaxLag-th call to Checkpoint, counting from the writer's first, is
// mandatory whatever the caller passed: it blocks the rank until a buffer
// frees instead of dropping. The ranks of a world all call Checkpoint at the
// same iterations, so their mandatory captures coincide, and once the
// writers have drained (Close, which every rank reaches on a fail-stop)
// RunScope.LatestComplete is at most MaxLag-1 captures older than the newest
// capture any rank attempted — recovery replays at most that many extra
// iterations however slow the disk or the scheduler was. A per-writer bound
// on consecutive drops would not give this: two ranks dropping alternate
// iterations share no complete one.
type Writer struct {
	rank    int
	rankDir string
	calls   int64 // Checkpoint calls so far; owned by the calling rank
	free    chan *State
	work    chan *State
	done    chan struct{}

	segments, bytes, dropped, errs atomic.Int64

	shadow *State        // writer-goroutine-owned after start
	tr     *trace.Stream // writer-goroutine-owned span stream; nil when tracing is off
}

// NewWriter builds the writer for rank inside scope. The size arguments fix
// the capture-buffer geometry. resume, when non-nil, seeds the shadow with
// the state of the rank's last committed segment (the state a replay
// produced) so post-resume diffs chain correctly; nil means a fresh chain
// whose first capture must be the bootstrap (Iter -1) state. tr, when
// non-nil, receives one "commit" span per committed segment; it must be a
// stream dedicated to this writer (the writer goroutine is its single
// writer).
func NewWriter(sc *RunScope, rank int, hubWords, lWords, hubLen, lLen int, resume *State, tr *trace.Stream) (*Writer, error) {
	rd := sc.rankDir(rank)
	if err := os.MkdirAll(rd, 0o755); err != nil {
		return nil, err
	}
	w := &Writer{
		rank:    rank,
		rankDir: rd,
		free:    make(chan *State, 2),
		work:    make(chan *State, 2),
		done:    make(chan struct{}),
		shadow:  NewState(hubWords, lWords, hubLen, lLen),
		tr:      tr,
	}
	w.free <- NewState(hubWords, lWords, hubLen, lLen)
	w.free <- NewState(hubWords, lWords, hubLen, lLen)
	if resume != nil {
		if err := copyState(w.shadow, resume); err != nil {
			return nil, err
		}
		w.shadow.Iter = resume.Iter
	}
	go w.loop()
	return w, nil
}

func copyState(dst, src *State) error {
	if len(dst.HubFrontier) != len(src.HubFrontier) || len(dst.LFrontier) != len(src.LFrontier) ||
		len(dst.ParentHub) != len(src.ParentHub) || len(dst.ParentL) != len(src.ParentL) {
		return fmt.Errorf("checkpoint: state geometry mismatch")
	}
	copy(dst.HubFrontier, src.HubFrontier)
	copy(dst.HubVisited, src.HubVisited)
	copy(dst.LFrontier, src.LFrontier)
	copy(dst.LVisited, src.LVisited)
	copy(dst.ParentHub, src.ParentHub)
	copy(dst.ParentL, src.ParentL)
	dst.ActiveL, dst.VisitL = src.ActiveL, src.VisitL
	return nil
}

// Checkpoint captures the rank's state as of completing iteration iter and
// queues it for committing. It returns false if the capture was dropped
// (both buffers busy, must false, and not a MaxLag-th call). must blocks for
// a buffer instead — used for the bootstrap segment, without which a chain
// is worthless.
func (w *Writer) Checkpoint(iter int64, must bool,
	hubFrontier, hubVisited, lFrontier, lVisited []uint64,
	parentHub, parentL []int64, activeL, visitL int64) bool {
	var buf *State
	must = must || w.calls%MaxLag == 0
	w.calls++
	if must {
		buf = <-w.free
	} else {
		select {
		case buf = <-w.free:
		default:
			w.dropped.Add(1)
			return false
		}
	}
	buf.Iter = iter
	copy(buf.HubFrontier, hubFrontier)
	copy(buf.HubVisited, hubVisited)
	copy(buf.LFrontier, lFrontier)
	copy(buf.LVisited, lVisited)
	copy(buf.ParentHub, parentHub)
	copy(buf.ParentL, parentL)
	buf.ActiveL, buf.VisitL = activeL, visitL
	w.work <- buf
	return true
}

// Close drains pending captures, stops the writer goroutine and returns the
// lifetime stats. The Writer must not be used afterwards.
func (w *Writer) Close() WriterStats {
	close(w.work)
	<-w.done
	return WriterStats{
		Segments: w.segments.Load(),
		Bytes:    w.bytes.Load(),
		Dropped:  w.dropped.Load(),
		Errors:   w.errs.Load(),
	}
}

func (w *Writer) loop() {
	defer close(w.done)
	for buf := range w.work {
		var t0 int64
		if w.tr != nil {
			t0 = w.tr.Now()
		}
		d := diffStates(w.shadow, buf)
		data, err := encodeSegment(kindDelta, w.rank, buf.Iter, &d)
		if err == nil {
			err = commit(deltaPath(w.rankDir, buf.Iter), data)
		}
		if err != nil {
			// Leave the shadow untouched: the next capture's diff then
			// re-carries this one's changes, keeping the on-disk chain
			// consistent (just with a gap, like a dropped capture).
			w.errs.Add(1)
		} else {
			w.segments.Add(1)
			w.bytes.Add(int64(len(data)))
			w.shadow.apply(&d)
		}
		if w.tr != nil {
			sp := trace.Span{Kind: trace.KindCheckpoint, Iter: buf.Iter, Step: -1,
				Name: "commit", Start: t0, Dur: w.tr.Now() - t0, Bytes: int64(len(data))}
			if err != nil {
				sp.Err = 1
			}
			w.tr.Emit(sp)
		}
		w.free <- buf
	}
}

func diffWords(shadow, cur []uint64) []WordDelta {
	var out []WordDelta
	for i, w := range cur {
		if shadow[i] != w {
			out = append(out, WordDelta{Idx: int32(i), Word: w})
		}
	}
	return out
}

func diffParents(shadow, cur []int64) []ParentDelta {
	var out []ParentDelta
	for i, p := range cur {
		if shadow[i] != p {
			out = append(out, ParentDelta{Idx: int32(i), Parent: p})
		}
	}
	return out
}

func diffStates(shadow, cur *State) Delta {
	return Delta{
		Iter:        cur.Iter,
		HubFrontier: diffWords(shadow.HubFrontier, cur.HubFrontier),
		HubVisited:  diffWords(shadow.HubVisited, cur.HubVisited),
		LFrontier:   diffWords(shadow.LFrontier, cur.LFrontier),
		LVisited:    diffWords(shadow.LVisited, cur.LVisited),
		ParentHub:   diffParents(shadow.ParentHub, cur.ParentHub),
		ParentL:     diffParents(shadow.ParentL, cur.ParentL),
		ActiveL:     cur.ActiveL,
		VisitL:      cur.VisitL,
	}
}
