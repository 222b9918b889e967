package comm

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/trace"
)

// This file is the fault-injection surface of the runtime. The paper's
// 180,792-GTEPS run rides on tens of thousands of collectives completing
// flawlessly across 103,912 nodes; a production deployment cannot assume
// that, so the in-process transport can be made unreliable on purpose. A
// Transport intercepts every rank's contribution to every collective and may
// delay it, withhold it (a stalled rank), corrupt its payload, or fail it
// outright. Detection is symmetric: contributions travel as checksummed
// envelopes, and every member of the communicator inspects all envelopes
// between the two rendezvous barriers, so all members return the same typed
// error for the same collective. A faulty rank still arrives at the physical
// rendezvous (it withholds its payload instead of abandoning the barrier),
// which is what keeps a stalled rank from deadlocking the world: detection is
// driven by envelope metadata rather than by escaping the barrier, so the
// whole world stays in collective lockstep even while reporting errors.

// Sentinel errors returned by collectives under fault injection. Callers
// match with errors.Is; the concrete error is a *CollectiveError carrying the
// offending rank and collective kind.
var (
	// ErrCollectiveFailed marks a contribution failed outright (the modeled
	// equivalent of a reported send error or a dead NIC).
	ErrCollectiveFailed = errors.New("comm: collective contribution failed")
	// ErrRankStalled marks a contribution withheld past the collective
	// deadline (the modeled equivalent of a hung process detected by a
	// timeout watchdog instead of a silent hang).
	ErrRankStalled = errors.New("comm: rank stalled in collective")
	// ErrPayloadCorrupted marks a payload whose checksum did not match what
	// the sender declared.
	ErrPayloadCorrupted = errors.New("comm: payload checksum mismatch")
	// ErrDeadlineExceeded marks a collective whose slowest contribution
	// arrived later than the configured per-collective deadline.
	ErrDeadlineExceeded = errors.New("comm: collective deadline exceeded")
	// ErrRankDead marks a fail-stop rank: a Kill fault removed it
	// permanently, and every collective it participates in from then on
	// fails with this sentinel on every member. Unlike the transient faults
	// above, retrying cannot clear it — recovery requires a new world epoch
	// (see World.NextEpoch).
	ErrRankDead = errors.New("comm: rank is dead (fail-stop)")
)

// CollectiveError wraps a sentinel with the collective and rank it hit.
type CollectiveError struct {
	Kind Kind  // which collective
	Seq  int64 // detecting rank's collective sequence number
	Rank int   // offending world rank
	Err  error // sentinel
}

// Error describes the failure.
func (e *CollectiveError) Error() string {
	return fmt.Sprintf("%v (collective %v #%d, rank %d)", e.Err, e.Kind, e.Seq, e.Rank)
}

// Unwrap exposes the sentinel to errors.Is.
func (e *CollectiveError) Unwrap() error { return e.Err }

// Call describes one rank's participation in one collective, handed to the
// Transport for a verdict.
type Call struct {
	Rank      int   // world rank contributing
	Supernode int   // the rank's supernode on the modeled machine
	Kind      Kind  // collective kind
	Seq       int64 // the rank's collective sequence number (1-based)
	CommSize  int   // members in the communicator
	// Iter is the engine-declared iteration the call belongs to (-1 outside
	// an iteration), and Tag its schedule position within the iteration (-1
	// untagged). Both are advisory labels set via Rank.SetIter/SetTag; they
	// let transports scope faults to "iteration 2" or "during component c"
	// instead of raw sequence numbers.
	Iter int64
	Tag  int
}

// FaultAction is the Transport's verdict for one contribution. The zero value
// is a clean contribution. Fail takes precedence over Withhold, which takes
// precedence over Corrupt; Delay composes with any of them (the rank sleeps
// before contributing).
type FaultAction struct {
	// Delay sleeps the contributing rank before it posts.
	Delay time.Duration
	// Withhold posts no payload: the rank is stalled. The collective fails
	// with ErrRankStalled on every member.
	Withhold bool
	// Corrupt flips a bit in a copy of the payload; receivers detect the
	// checksum mismatch and the collective fails with ErrPayloadCorrupted.
	// The caller's buffer is never touched, so a retry resends clean data.
	Corrupt bool
	// Fail fails the contribution outright: ErrCollectiveFailed everywhere.
	Fail bool
	// Kill permanently removes the rank: this collective and every later one
	// the rank participates in fail with ErrRankDead on every member. The
	// rank's goroutine keeps arriving at rendezvous (posting a dead envelope,
	// so nothing deadlocks) but contributes no payload ever again — a
	// fail-stop zombie. Kill takes precedence over every other action, and
	// once a rank is dead the transport is no longer consulted for it.
	Kill bool
}

// Transport decides the fate of each collective contribution. Implementations
// must be safe for concurrent use (all ranks consult it in parallel) and
// should be deterministic functions of the Call for reproducible chaos.
type Transport interface {
	Intercept(c Call) FaultAction
}

// WorldOptions configures the unreliable parts of a World.
type WorldOptions struct {
	// Transport injects faults into collectives; nil means perfectly
	// reliable (the zero-cost fast path).
	Transport Transport
	// Deadline is the per-collective deadline: a collective whose slowest
	// contribution is delayed past it fails with ErrDeadlineExceeded on
	// every member. 0 disables deadline detection.
	Deadline time.Duration
	// Trace records one span per collective (enter to exit, payload bytes
	// split by supernode locality) on a per-rank stream. nil disables
	// tracing; the hot path then pays a single nil check per collective.
	// Control-plane collectives (ControlSumInt64, ControlOrWords) are exempt,
	// mirroring their exemption from traffic accounting.
	Trace *trace.Tracer
	// Dist spreads the world's ranks across the processes of a Group (the
	// socket backend). nil keeps every rank in this process. NextEpoch
	// carries the configuration into successor worlds, re-homing the dead
	// slots' processes alongside their nodes.
	Dist *DistConfig
}

// FaultStats counts one rank's injected faults and observed collective
// errors. Rank-local and unsynchronized, like VolumeStats.
type FaultStats struct {
	Delays      int64 // contributions delayed
	Stalls      int64 // contributions withheld
	Corruptions int64 // payloads corrupted (only counted when applied)
	Failures    int64 // contributions failed outright
	Kills       int64 // ranks fail-stopped (counted once per kill, not per collective)
	DelayTime   time.Duration
	// Errors counts collectives that returned a typed error at this rank.
	Errors int64
}

// Add accumulates other into s.
func (s *FaultStats) Add(other *FaultStats) {
	s.Delays += other.Delays
	s.Stalls += other.Stalls
	s.Corruptions += other.Corruptions
	s.Failures += other.Failures
	s.Kills += other.Kills
	s.DelayTime += other.DelayTime
	s.Errors += other.Errors
}

// Injected totals all injected faults.
func (s *FaultStats) Injected() int64 {
	return s.Delays + s.Stalls + s.Corruptions + s.Failures + s.Kills
}
