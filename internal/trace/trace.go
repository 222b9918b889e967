// Package trace is the per-iteration kernel tracing substrate of the
// evaluation pipeline: a low-overhead span recorder that captures what the
// paper's Figures 10/11/15 are built from — one span per (iteration,
// component, direction, step) on every rank, plus per-collective payload
// volumes, direction-decision records, and checkpoint/recovery accounting —
// and merges the per-rank streams into a single run timeline.
//
// The recorder is designed so the engine's hot path pays exactly one nil
// pointer check when tracing is off: every instrumented package holds a
// *Stream that is nil unless a Tracer was installed, and guards its hook
// with `if tr != nil`. When tracing is on, each recording goroutine owns its
// own Stream (rank goroutines, checkpoint writer goroutines, the engine),
// so Emit is an unsynchronized slice append with no cross-rank contention;
// only stream creation takes the tracer lock.
//
// Two export formats cover the two consumers: WriteJSONL dumps the merged
// timeline one span per line for machine processing (the `bfsbench -trace`
// format), and WriteChrome converts it to the Chrome trace_event JSON that
// chrome://tracing and Perfetto render as per-rank flame graphs.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// Kind classifies a span.
type Kind uint8

// Span kinds.
const (
	// KindKernel is one component kernel execution (iteration, component,
	// direction, step) — the Figure 10 unit.
	KindKernel Kind = iota
	// KindSync is a delegated hub-state synchronization (column+row
	// allreduce-OR pair).
	KindSync
	// KindReduce is a delegated-parent reduction.
	KindReduce
	// KindCollective is one comm collective (enter to exit), with its payload
	// bytes split intra/inter supernode — the Figure 11 unit.
	KindCollective
	// KindDecision is one latched-schedule record: the globally consistent
	// inputs and the per-component outcome.
	KindDecision
	// KindCheckpoint is checkpoint-writer work: a synchronous capture or an
	// asynchronous segment commit.
	KindCheckpoint
	// KindRecovery is resilience work: a retry, a checkpoint replay, a world
	// rebuild.
	KindRecovery
	// KindEvent is an engine lifecycle marker (run start/end).
	KindEvent
	// KindBatch is one batched multi-source iteration record: how many
	// queries rode the sweep (live vs already-converged planes).
	KindBatch
	numKinds
)

// String names the kind as emitted in the JSONL dump.
func (k Kind) String() string {
	switch k {
	case KindKernel:
		return "kernel"
	case KindSync:
		return "sync"
	case KindReduce:
		return "reduce"
	case KindCollective:
		return "collective"
	case KindDecision:
		return "decision"
	case KindCheckpoint:
		return "checkpoint"
	case KindRecovery:
		return "recovery"
	case KindEvent:
		return "event"
	case KindBatch:
		return "batch"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Span is one recorded interval (or instant, when Dur is 0) on one stream.
// Start and Dur are nanoseconds on the tracer's clock (zero = tracer
// creation). The zero value of every optional field is omitted from the
// JSONL encoding.
type Span struct {
	Kind Kind
	// Rank is the world rank the span belongs to; -1 marks engine-level
	// spans (world rebuilds, run markers).
	Rank int
	// Epoch is the world membership epoch the span ran under.
	Epoch int
	// Iter is the engine iteration (-1 outside any iteration, e.g. setup,
	// bootstrap checkpoint, final reduction).
	Iter int64
	// Step is the engine step within the iteration (0..3; -1 when the span
	// is not step-scoped).
	Step int
	// Attempt is the retry attempt the span executed under (0 = first try).
	// Spans from failed attempts stay in the trace — the timeline shows what
	// actually ran — while internal/stats rolls re-entered spans back so
	// aggregates never double-count (see DESIGN.md §9).
	Attempt int
	// Tag is the engine schedule tag active when the span was recorded
	// (component index 0..5, or one of core's TagEpilogue/TagReduce/TagSetup;
	// -1 untagged). Only meaningful on collective spans.
	Tag int
	// Name identifies the span within its kind: the component for kernels,
	// the collective kind and communicator scope ("alltoallv/row") for
	// collectives, the event name otherwise.
	Name string
	// Dir is the traversal direction for kernel spans (push/pull/skip).
	Dir string
	// Start is nanoseconds since the tracer's clock zero; Dur the span's
	// wall-clock length (0 for instant events).
	Start, Dur int64
	// Edges counts adjacency entries scanned by a kernel span.
	Edges int64
	// IntraBytes/InterBytes are payload bytes sent during the span, split by
	// supernode locality (collective and kernel spans).
	IntraBytes, InterBytes int64
	// Bytes is payload size for checkpoint and replay spans.
	Bytes int64
	// Err is 1 when the spanned operation returned an error.
	Err int64
	// Args carries kind-specific integer arguments (decision inputs, retry
	// masks). Nil for most spans.
	Args map[string]int64
}

// jsonSpan is the JSONL wire form of a Span.
type jsonSpan struct {
	Kind    string           `json:"kind"`
	Rank    int              `json:"rank"`
	Epoch   int              `json:"epoch,omitempty"`
	Iter    int64            `json:"iter"`
	Step    int              `json:"step"`
	Attempt int              `json:"attempt,omitempty"`
	Tag     int              `json:"tag,omitempty"`
	Name    string           `json:"name"`
	Dir     string           `json:"dir,omitempty"`
	StartNs int64            `json:"start_ns"`
	DurNs   int64            `json:"dur_ns"`
	Edges   int64            `json:"edges,omitempty"`
	Intra   int64            `json:"intra_bytes,omitempty"`
	Inter   int64            `json:"inter_bytes,omitempty"`
	Bytes   int64            `json:"bytes,omitempty"`
	Err     int64            `json:"err,omitempty"`
	Args    map[string]int64 `json:"args,omitempty"`
}

// Tracer owns a run's streams and its clock. Create one per benchmark
// process, hand it to the engine via Options, and export after the runs
// complete. Stream creation and merging are synchronized; recording is not
// (each stream has exactly one writing goroutine).
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	streams []*Stream
}

// New creates a tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{start: time.Now()}
}

// Now returns nanoseconds since the tracer's clock zero.
func (t *Tracer) Now() int64 { return int64(time.Since(t.start)) }

// NewStream registers a new single-writer span stream. rank is the world
// rank the stream records for (-1 for engine-level streams).
func (t *Tracer) NewStream(rank int) *Stream {
	s := &Stream{t: t, rank: rank}
	t.mu.Lock()
	t.streams = append(t.streams, s)
	t.mu.Unlock()
	return s
}

// Reset discards every recorded span while keeping the registered streams
// and the clock. It must not run concurrently with recording; benchmarks use
// it between runs to bound memory.
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.streams {
		s.spans = s.spans[:0]
	}
}

// Spans merges every stream into one timeline ordered by start time (ties
// broken by rank, then kind). Call only after the recording goroutines have
// finished (World.Run and Writer.Close have returned).
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.streams {
		out = append(out, s.spans...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// WriteJSONL writes the merged timeline one JSON span per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, sp := range t.Spans() {
		js := jsonSpan{
			Kind: sp.Kind.String(), Rank: sp.Rank, Epoch: sp.Epoch,
			Iter: sp.Iter, Step: sp.Step, Attempt: sp.Attempt, Tag: sp.Tag,
			Name: sp.Name, Dir: sp.Dir, StartNs: sp.Start, DurNs: sp.Dur,
			Edges: sp.Edges, Intra: sp.IntraBytes, Inter: sp.InterBytes,
			Bytes: sp.Bytes, Err: sp.Err, Args: sp.Args,
		}
		if err := enc.Encode(js); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Stream is a single-writer span sink. Exactly one goroutine may Emit on a
// stream at a time (rank goroutines, writer goroutines and the engine each
// get their own); this is what keeps recording lock-free.
type Stream struct {
	t     *Tracer
	rank  int
	spans []Span
}

// Rank returns the world rank the stream records for.
func (s *Stream) Rank() int { return s.rank }

// Fork registers a sibling stream for the same rank, for a helper goroutine
// (e.g. a rank's async checkpoint writer) that must not share the rank
// goroutine's single-writer stream.
func (s *Stream) Fork() *Stream { return s.t.NewStream(s.rank) }

// Now returns nanoseconds on the owning tracer's clock.
func (s *Stream) Now() int64 { return s.t.Now() }

// Emit appends a span. The span's Rank is always the stream's: a stream
// records for exactly one rank.
func (s *Stream) Emit(sp Span) {
	sp.Rank = s.rank
	s.spans = append(s.spans, sp)
}
