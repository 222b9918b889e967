// Package stats records per-rank time and communication-volume breakdowns
// during a BFS run, categorized two ways like the paper's evaluation:
// by subgraph component plus parent reduction and other (Figure 10), and by
// collective type plus compute (Figure 11). Kernels additionally tag each
// observation with its traversal direction, which is what the Figure 15
// ablation plots.
package stats

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/partition"
)

// Phase is a time-breakdown category: the six components plus bookkeeping.
type Phase int

// Phases, mirroring Figure 10's legend.
const (
	PhaseEH2EH Phase = iota
	PhaseE2L
	PhaseH2L
	PhaseL2E
	PhaseL2H
	PhaseL2L
	PhaseReduce
	PhaseOther
	NumPhases
)

// PhaseOfComponent maps a component to its phase.
func PhaseOfComponent(c partition.Component) Phase {
	switch c {
	case partition.CompEH2EH:
		return PhaseEH2EH
	case partition.CompE2L:
		return PhaseE2L
	case partition.CompH2L:
		return PhaseH2L
	case partition.CompL2E:
		return PhaseL2E
	case partition.CompL2H:
		return PhaseL2H
	case partition.CompL2L:
		return PhaseL2L
	}
	return PhaseOther
}

// String names the phase as in Figure 10.
func (p Phase) String() string {
	switch p {
	case PhaseEH2EH:
		return "EH2EH"
	case PhaseE2L:
		return "E2L"
	case PhaseH2L:
		return "H2L"
	case PhaseL2E:
		return "L2E"
	case PhaseL2H:
		return "L2H"
	case PhaseL2L:
		return "L2L"
	case PhaseReduce:
		return "reduce"
	case PhaseOther:
		return "other"
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Direction is the traversal direction of an observation.
type Direction int

// Directions. None marks phases without a push/pull notion (reduce, other);
// Skip marks sub-iterations elided entirely because their source frontier or
// destination class is exhausted (Section 4.2's "eliminates unnecessary E or
// H visits from L vertices in late iterations").
const (
	DirNone Direction = iota
	DirPush
	DirPull
	DirSkip
	numDirections
)

// NumDirections is the direction-axis size, for callers that tally per
// direction (the Figure 15 report).
const NumDirections = int(numDirections)

// String names the direction.
func (d Direction) String() string {
	switch d {
	case DirPush:
		return "push"
	case DirPull:
		return "pull"
	case DirSkip:
		return "skip"
	}
	return "-"
}

// Recorder accumulates one rank's observations. Not safe for concurrent use;
// each rank owns one.
type Recorder struct {
	Time    [NumPhases][numDirections]time.Duration
	Volumes [NumPhases]comm.VolumeStats
	// EdgesTouched counts adjacency entries scanned per phase, the work
	// measure behind TEPS and the direction-optimization savings.
	EdgesTouched [NumPhases]int64
	// FailStop records the fail-stop recovery and checkpoint accounting of
	// the run (zero when checkpointing is off and no rank died).
	FailStop RecoveryStats
}

// RecoveryStats accounts fail-stop recovery: world-epoch transitions,
// checkpoint traffic, and the replay cost of resuming. Per-rank recorders
// carry their own checkpoint-writer and restore numbers; the engine adds the
// run-global fields (Epochs, RanksLost, IterationsReplayed, RecoveryTime)
// once, so merging recorders never double-counts them.
type RecoveryStats struct {
	// Epochs counts world rebuilds (one per detected fail-stop event, which
	// may lose several ranks at once); RanksLost totals ranks lost across
	// them.
	Epochs    int64
	RanksLost int64
	// IterationsReplayed counts iterations re-executed because they happened
	// after the checkpoint the run resumed from.
	IterationsReplayed int64
	// BytesRestored totals checkpoint bytes read back during recovery
	// (delta-tier replay on every rank, plus the graph tier on replaced
	// ranks).
	BytesRestored int64
	// LastResumeIter is the iteration of the newest checkpoint the run
	// resumed from (-1 = bootstrap segment only, -2 = never resumed).
	LastResumeIter int64
	// RecoveryTime is wall clock spent rebuilding worlds and replaying
	// state, as observed by the engine (not summed across ranks).
	RecoveryTime time.Duration
	// Checkpoint-writer accounting, summed across ranks: committed segments
	// and bytes, captures dropped because both buffers were in flight, and
	// segments that failed to commit.
	CheckpointSegments int64
	CheckpointBytes    int64
	CheckpointDropped  int64
	CheckpointErrors   int64
}

// Add accumulates other into s. Counters sum; LastResumeIter is engine-owned
// (set once on the aggregate, not meaningful to sum) and is left untouched.
func (s *RecoveryStats) Add(other *RecoveryStats) {
	s.Epochs += other.Epochs
	s.RanksLost += other.RanksLost
	s.IterationsReplayed += other.IterationsReplayed
	s.BytesRestored += other.BytesRestored
	s.RecoveryTime += other.RecoveryTime
	s.CheckpointSegments += other.CheckpointSegments
	s.CheckpointBytes += other.CheckpointBytes
	s.CheckpointDropped += other.CheckpointDropped
	s.CheckpointErrors += other.CheckpointErrors
}

// Observe adds one kernel execution's time, traffic delta and scanned edges.
func (r *Recorder) Observe(p Phase, d Direction, dt time.Duration, dv comm.VolumeStats, edges int64) {
	r.Time[p][d] += dt
	r.Volumes[p].Add(&dv)
	r.EdgesTouched[p] += edges
}

// Merge folds other into r (for aggregating ranks).
func (r *Recorder) Merge(other *Recorder) {
	for p := Phase(0); p < NumPhases; p++ {
		for d := Direction(0); d < numDirections; d++ {
			r.Time[p][d] += other.Time[p][d]
		}
		r.Volumes[p].Add(&other.Volumes[p])
		r.EdgesTouched[p] += other.EdgesTouched[p]
	}
	r.FailStop.Add(&other.FailStop)
}

// PhaseTime returns the total time of a phase across directions.
func (r *Recorder) PhaseTime(p Phase) time.Duration {
	var t time.Duration
	for d := Direction(0); d < numDirections; d++ {
		t += r.Time[p][d]
	}
	return t
}

// TotalTime sums every phase.
func (r *Recorder) TotalTime() time.Duration {
	var t time.Duration
	for p := Phase(0); p < NumPhases; p++ {
		t += r.PhaseTime(p)
	}
	return t
}

// TotalEdges sums scanned edges over phases.
func (r *Recorder) TotalEdges() int64 {
	var t int64
	for p := Phase(0); p < NumPhases; p++ {
		t += r.EdgesTouched[p]
	}
	return t
}

// CommBreakdown aggregates volumes across phases per collective kind,
// the Figure 11 categorization.
func (r *Recorder) CommBreakdown() comm.VolumeStats {
	var v comm.VolumeStats
	for p := Phase(0); p < NumPhases; p++ {
		v.Add(&r.Volumes[p])
	}
	return v
}

// CommBytes sums the collective payload traffic over every kind and
// locality.
func (r *Recorder) CommBytes() int64 {
	vol := r.CommBreakdown()
	intra, inter := vol.Totals()
	return intra + inter
}

// PhaseShare returns each phase's fraction of total time (Figure 10 bars).
func (r *Recorder) PhaseShare() [NumPhases]float64 {
	var out [NumPhases]float64
	total := r.TotalTime()
	if total == 0 {
		return out
	}
	for p := Phase(0); p < NumPhases; p++ {
		out[p] = float64(r.PhaseTime(p)) / float64(total)
	}
	return out
}
