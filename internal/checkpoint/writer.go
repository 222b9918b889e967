package checkpoint

import (
	"errors"
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
	Segments int64 // delta records committed
	Bytes    int64 // bytes committed
	Dropped  int64 // captures skipped because both buffers were in flight
	Errors   int64 // records that failed to append
}

// Writer checkpoints one rank's iteration state asynchronously. The caller
// copies its live state into one of two capture buffers (the only
// synchronous cost — a memcpy of the bitmap words and parent arrays) and the
// writer goroutine does everything else off the critical path: in one pass
// it diffs the capture against its shadow of the last committed state and
// encodes the changed slots into a retained byte buffer, appends the
// CRC-framed record to the rank's log, and on success adopts the capture as
// the new shadow (the old shadow becomes a capture buffer). When both buffers
// are still in flight a non-mandatory capture is dropped rather than blocking
// a kernel — the chain stays consistent because diffs are always taken
// against the last *committed* state, so the next capture simply carries the
// skipped iteration's changes too.
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
//
// Log contract. A rank's log has one writer at a time: a fresh Writer
// (resume nil) truncates it and starts a new chain with the bootstrap record,
// a resuming Writer appends after the record the caller cut the log at
// (RunScope.Truncate), and nothing else may write or truncate the file while
// a Writer is open. Each record is handed to the kernel in one write call and
// is never rewritten. The log therefore survives the death of the process at
// any instant, SIGKILL mid-append included: the scan ignores the torn tail,
// so recovery falls back exactly one capture. It is not fsynced, so it does
// not survive power loss or a kernel crash; nothing in this package claims
// otherwise. A failed append (disk full) is rolled back by truncating the log
// to the last good record; if even that fails the Writer stops writing and
// counts every later capture as an error, which leaves the chain short but
// never wrong. There are no temporary files.
type Writer struct {
	rank  int
	log   *os.File
	size  int64 // bytes of whole records in the log; writer-goroutine-owned
	calls int64 // Checkpoint calls so far; owned by the calling rank
	free  chan *State
	work  chan *State
	done  chan struct{}

	segments, bytes, dropped, errs atomic.Int64

	shadow *State        // writer-goroutine-owned after start
	enc    []byte        // the record being built, reused across captures
	tr     *trace.Stream // writer-goroutine-owned span stream; nil when tracing is off
}

// NewWriter builds the writer for rank inside scope. The size arguments fix
// the capture-buffer geometry. resume, when non-nil, seeds the shadow with
// the state of the rank's last committed record (the state a replay
// produced) so post-resume diffs chain correctly; nil means a fresh chain
// whose first capture must be the bootstrap (Iter -1) state. tr, when
// non-nil, receives one "commit" span per committed record; it must be a
// stream dedicated to this writer (the writer goroutine is its single
// writer).
func NewWriter(sc *RunScope, rank int, hubWords, lWords, hubLen, lLen int, resume *State, tr *trace.Stream) (*Writer, error) {
	w := &Writer{
		rank:   rank,
		free:   make(chan *State, 2),
		work:   make(chan *State, 2),
		done:   make(chan struct{}),
		shadow: NewState(hubWords, lWords, hubLen, lLen),
		tr:     tr,
	}
	flags := os.O_WRONLY | os.O_CREATE | os.O_APPEND
	if resume == nil {
		flags |= os.O_TRUNC
	} else if err := copyState(w.shadow, resume); err != nil {
		return nil, err
	}
	var err error
	if w.log, err = os.OpenFile(sc.logPath(rank), flags, 0o644); err != nil {
		return nil, err
	}
	if resume != nil {
		fi, err := w.log.Stat()
		if err != nil {
			w.log.Close()
			return nil, err
		}
		w.size = fi.Size()
	}
	w.free <- NewState(hubWords, lWords, hubLen, lLen)
	w.free <- NewState(hubWords, lWords, hubLen, lLen)
	go w.loop()
	return w, nil
}

func copyState(dst, src *State) error {
	if len(dst.HubFrontier) != len(src.HubFrontier) || len(dst.HubVisited) != len(src.HubVisited) ||
		len(dst.LFrontier) != len(src.LFrontier) || len(dst.LVisited) != len(src.LVisited) ||
		len(dst.ParentHub) != len(src.ParentHub) || len(dst.ParentL) != len(src.ParentL) {
		return fmt.Errorf("checkpoint: state geometry mismatch")
	}
	dst.Iter = src.Iter
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
// a buffer instead — used for the bootstrap record, without which a chain
// is worthless. The six slices must have the lengths NewWriter was given: a
// mismatch is a caller bug that would persist a silently clipped state, so it
// panics.
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
	cur := State{Iter: iter, HubFrontier: hubFrontier, HubVisited: hubVisited, LFrontier: lFrontier,
		LVisited: lVisited, ParentHub: parentHub, ParentL: parentL, ActiveL: activeL, VisitL: visitL}
	if err := copyState(buf, &cur); err != nil {
		w.free <- buf
		panic(fmt.Sprintf("checkpoint: rank %d capture of iteration %d: slice lengths differ from the writer's geometry", w.rank, iter))
	}
	w.work <- buf
	return true
}

// Close drains pending captures, stops the writer goroutine, closes the log
// and returns the lifetime stats. The Writer must not be used afterwards.
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
		iter := buf.Iter
		n, err := w.commit(buf)
		if err != nil {
			// Leave the shadow untouched: the next capture's diff then
			// re-carries this one's changes, keeping the chain consistent
			// (just with a gap, like a dropped capture).
			w.errs.Add(1)
		} else {
			w.segments.Add(1)
			w.bytes.Add(n)
			w.shadow, buf = buf, w.shadow
		}
		if w.tr != nil {
			sp := trace.Span{Kind: trace.KindCheckpoint, Iter: iter, Step: -1,
				Name: "commit", Start: t0, Dur: w.tr.Now() - t0, Bytes: n}
			if err != nil {
				sp.Err = 1
			}
			w.tr.Emit(sp)
		}
		w.free <- buf
	}
	if w.log != nil {
		if err := w.log.Close(); err != nil {
			w.errs.Add(1)
		}
	}
}

// errLogAbandoned is what commit returns once a failed append could not be
// rolled back and the writer gave the log up.
var errLogAbandoned = errors.New("checkpoint: log abandoned after an append could not be rolled back")

// commit encodes the record that takes the shadow to buf and appends it to
// the log, returning the record's length.
func (w *Writer) commit(buf *State) (int64, error) {
	if w.log == nil {
		return 0, errLogAbandoned
	}
	w.enc = sealFrame(appendDelta(appendHeader(w.enc[:0], kindDelta, w.rank, buf.Iter), w.shadow, buf))
	if _, err := w.log.Write(w.enc); err != nil {
		// Part of the record may be on disk. Later records appended behind
		// it would be unreachable, so cut it off; failing that, stop writing.
		if terr := w.log.Truncate(w.size); terr != nil {
			w.log.Close()
			w.log = nil
		}
		return 0, err
	}
	w.size += int64(len(w.enc))
	return int64(len(w.enc)), nil
}
