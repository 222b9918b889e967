// Package comm is the message-passing runtime standing in for MPI (the
// substitution DESIGN.md documents: Go has no MPI ecosystem). Ranks run as
// goroutines in a World, inside one process or spread over processes
// connected by sockets (dist.go); collectives — Alltoallv, Allgatherv,
// ReduceScatterOr, Allreduce — operate over communicators, with row and
// column sub-communicators over the R×C mesh exactly like the paper's 1.5D
// layout. Every data-plane collective runs one protocol (Comm.collective),
// the control plane another (controlGather) and the process plane a third
// (World.exchange). Every collective records the bytes each rank sends,
// split into intra- and inter-supernode traffic using the topology model, so
// the perfmodel package can price runs on the paper's machine constants.
package comm

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/topology"
	"repro/internal/trace"
)

// Kind labels a collective for traffic accounting, matching the categories of
// the paper's Figure 11.
type Kind int

// Collective kinds.
const (
	KindAlltoallv Kind = iota
	KindAllgather
	KindReduceScatter
	KindBarrier
	KindAllgatherSparse
	numKinds
)

// NumKinds is the collective-kind axis size, for callers that iterate the
// VolumeStats arrays (the Figure 11 report).
const NumKinds = numKinds

// String returns the figure-11 style label.
func (k Kind) String() string {
	switch k {
	case KindAlltoallv:
		return "alltoallv"
	case KindAllgather:
		return "allgather"
	case KindReduceScatter:
		return "reduce_scatter"
	case KindBarrier:
		return "barrier"
	case KindAllgatherSparse:
		return "allgather_sparse"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// VolumeStats accumulates one rank's communication volumes. Rank-local and
// unsynchronized: each rank only writes its own.
type VolumeStats struct {
	IntraBytes [numKinds]int64
	InterBytes [numKinds]int64
	Calls      [numKinds]int64
}

// Add accumulates other into s.
func (s *VolumeStats) Add(other *VolumeStats) {
	for k := 0; k < int(numKinds); k++ {
		s.IntraBytes[k] += other.IntraBytes[k]
		s.InterBytes[k] += other.InterBytes[k]
		s.Calls[k] += other.Calls[k]
	}
}

// Delta returns s - base.
func (s *VolumeStats) Delta(base *VolumeStats) VolumeStats {
	var d VolumeStats
	for k := 0; k < int(numKinds); k++ {
		d.IntraBytes[k] = s.IntraBytes[k] - base.IntraBytes[k]
		d.InterBytes[k] = s.InterBytes[k] - base.InterBytes[k]
		d.Calls[k] = s.Calls[k] - base.Calls[k]
	}
	return d
}

// TotalBytes returns all bytes across kinds.
func (s *VolumeStats) TotalBytes() int64 {
	var t int64
	for k := 0; k < int(numKinds); k++ {
		t += s.IntraBytes[k] + s.InterBytes[k]
	}
	return t
}

// Totals sums payload bytes across kinds, split by supernode locality.
func (s *VolumeStats) Totals() (intra, inter int64) {
	for k := 0; k < int(numKinds); k++ {
		intra += s.IntraBytes[k]
		inter += s.InterBytes[k]
	}
	return intra, inter
}

// barrier is a reusable cyclic barrier.
type barrier struct {
	mu    sync.Mutex
	cond  *sync.Cond
	n     int
	count int
	gen   uint64
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.n {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}

// contribution is one member's envelope for one collective: the payload plus
// the fault metadata every member inspects between the two rendezvous
// barriers. Detection works on metadata rather than on escaping the barrier,
// which keeps all members in lockstep even while they agree on an error.
type contribution struct {
	// parts are the posted buffers' byte views: a local member's alias its
	// own buffers, a remote member's the received frame (see slot).
	parts [][]byte
	// declared is the checksum of the data the sender meant to post, posted
	// the checksum of the data it actually posted: computed once per process,
	// by the poster for a local member and at decode for a remote one, and
	// compared by every member in verify. A corrupted copy makes them
	// disagree on every receiver identically. Both stay zero when nothing is
	// verified (in-process backend with no transport, control plane).
	declared uint64
	posted   uint64
	delay    time.Duration // injected delay the sender slept before posting
	withheld bool          // stalled: no payload this collective
	failed   bool          // contribution failed outright
	dead     bool          // fail-stop: the rank is permanently gone
}

// shared is the state one communicator's members rendezvous through. On the
// in-process backend every member is local and bar spans them all; on the
// socket backend bar spans only the local members and dist carries the
// cross-process geometry (remote contributions arrive via the Group router
// and are gathered into slots by the local leader).
type shared struct {
	members []int          // world ranks, in member order
	slots   []contribution // one posting slot per member
	bar     *barrier       // rendezvous over the local members
	dist    *distComm      // nil on the in-process backend
}

// World owns the ranks and their communicators.
//
// A world lives inside one epoch of the membership protocol: rank slots are
// fixed at creation, and when a slot fail-stops (a Kill fault) the world
// cannot heal in place — survivors build the successor with NextEpoch, which
// keeps the mesh shape but remaps the dead slots onto hosting nodes
// (RebuildShrink) or onto fresh spare nodes (RebuildRestore). nodeOf carries
// the rank→machine-node mapping that the remap rewrites; on an epoch-0 world
// it is the identity, matching the historical "rank i is node i" model.
type World struct {
	size    int
	mesh    topology.Mesh
	machine topology.Machine
	opt     WorldOptions
	epoch   int
	nodeOf  []int // rank -> hosting machine node

	// Socket backend (nil dist = in-process). procOf maps each rank to its
	// hosting process; gen is the run generation stamped on wire frames,
	// assigned at each Run from the group's counter.
	dist   *DistConfig
	procOf []int
	gen    uint32
	// evacProc marks processes an earlier epoch already evacuated ranks
	// from: they are dead capacity and must never be picked as spares again,
	// or a double fail-stop would bounce ranks between corpses until the
	// epoch budget runs out. Carried forward by NextEpoch; nil until the
	// first evacuation.
	evacProc map[int]bool

	world *shared
	rows  []*shared // one per mesh row
	cols  []*shared // one per mesh column

	// streams holds one trace stream per rank slot when WorldOptions.Trace is
	// installed (nil otherwise). A slot's stream is reused across Run calls —
	// only one goroutine occupies a slot at a time, preserving the
	// single-writer contract.
	streams []*trace.Stream
}

// NewWorld builds a world of n ranks arranged in the mesh on the machine.
// Rank i is modeled as node i of the machine. The transport is perfectly
// reliable; use NewWorldOpts to inject faults.
func NewWorld(n int, mesh topology.Mesh, machine topology.Machine) (*World, error) {
	return NewWorldOpts(n, mesh, machine, WorldOptions{})
}

// NewWorldOpts builds a world with an explicit transport configuration.
func NewWorldOpts(n int, mesh topology.Mesh, machine topology.Machine, opt WorldOptions) (*World, error) {
	if err := mesh.Validate(n); err != nil {
		return nil, err
	}
	if machine.Nodes < n {
		return nil, fmt.Errorf("comm: machine has %d nodes for %d ranks", machine.Nodes, n)
	}
	w := &World{size: n, mesh: mesh, machine: machine, opt: opt, nodeOf: make([]int, n)}
	for i := 0; i < n; i++ {
		w.nodeOf[i] = i
	}
	if opt.Dist != nil {
		if opt.Dist.Group == nil {
			return nil, fmt.Errorf("comm: DistConfig without a Group")
		}
		if len(opt.Dist.ProcOf) != n {
			return nil, fmt.Errorf("comm: DistConfig.ProcOf has %d entries for %d ranks", len(opt.Dist.ProcOf), n)
		}
		procs := opt.Dist.Group.Procs()
		for r, p := range opt.Dist.ProcOf {
			if p < 0 || p >= procs {
				return nil, fmt.Errorf("comm: rank %d mapped to process %d of %d", r, p, procs)
			}
		}
		w.dist = opt.Dist
		w.procOf = append([]int(nil), opt.Dist.ProcOf...)
	}
	w.initComms()
	if opt.Trace != nil {
		w.streams = make([]*trace.Stream, n)
		for i := range w.streams {
			w.streams[i] = opt.Trace.NewStream(i)
		}
	}
	return w, nil
}

// initComms (re)builds the world/row/column communicators from the current
// rank→process map. Called once at construction and again by NextEpoch after
// the dead slots are re-homed, since re-homing changes which members are
// local to each process.
func (w *World) initComms() {
	build := func(members []int, id uint32) *shared {
		sh := &shared{members: members, slots: make([]contribution, len(members))}
		if w.dist == nil {
			sh.bar = newBarrier(len(members))
			return sh
		}
		me := w.dist.Group.Proc()
		d := &distComm{w: w, id: id, leader: -1}
		seen := make(map[int]bool)
		for m, r := range members {
			if w.procOf[r] == me {
				d.local = append(d.local, m)
				if d.leader < 0 {
					d.leader = m
				}
			} else {
				d.remote = append(d.remote, m)
				if !seen[w.procOf[r]] {
					seen[w.procOf[r]] = true
					d.remoteProcs = append(d.remoteProcs, w.procOf[r])
				}
			}
		}
		sh.bar = newBarrier(len(d.local))
		d.gbar = newBarrier(len(d.local))
		sh.dist = d
		return sh
	}
	all := make([]int, w.size)
	for i := range all {
		all[i] = i
	}
	w.world = build(all, 0)
	w.rows = make([]*shared, w.mesh.Rows)
	for r := 0; r < w.mesh.Rows; r++ {
		m := make([]int, w.mesh.Cols)
		for c := 0; c < w.mesh.Cols; c++ {
			m[c] = w.mesh.RankAt(r, c)
		}
		w.rows[r] = build(m, uint32(1+r))
	}
	w.cols = make([]*shared, w.mesh.Cols)
	for c := 0; c < w.mesh.Cols; c++ {
		m := make([]int, w.mesh.Rows)
		for r := 0; r < w.mesh.Rows; r++ {
			m[r] = w.mesh.RankAt(r, c)
		}
		w.cols[c] = build(m, uint32(1+w.mesh.Rows+c))
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Distributed reports whether this world spans multiple processes.
func (w *World) Distributed() bool { return w.dist != nil }

// Group returns the process group backing a distributed world (nil on the
// in-process backend).
func (w *World) Group() *Group {
	if w.dist == nil {
		return nil
	}
	return w.dist.Group
}

// ProcOf returns the process hosting rank r (0 on the in-process backend,
// where everything is process 0).
func (w *World) ProcOf(r int) int {
	if w.procOf == nil {
		return 0
	}
	return w.procOf[r]
}

// IsLocal reports whether rank r runs as a goroutine in this process.
func (w *World) IsLocal(r int) bool {
	return w.procOf == nil || w.procOf[r] == w.dist.Group.Proc()
}

// LocalRanks lists the ranks this process hosts, ascending. On the
// in-process backend that is every rank.
func (w *World) LocalRanks() []int {
	out := make([]int, 0, w.size)
	for r := 0; r < w.size; r++ {
		if w.IsLocal(r) {
			out = append(out, r)
		}
	}
	return out
}

// Mesh returns the process mesh.
func (w *World) Mesh() topology.Mesh { return w.mesh }

// Machine returns the modeled machine.
func (w *World) Machine() topology.Machine { return w.machine }

// Epoch returns the world's membership epoch (0 for a freshly built world).
func (w *World) Epoch() int { return w.epoch }

// NodeOf returns the machine node hosting rank r in this epoch.
func (w *World) NodeOf(r int) int { return w.nodeOf[r] }

// RebuildMode selects how NextEpoch re-homes dead rank slots.
type RebuildMode int

// Rebuild modes.
const (
	// RebuildShrink re-homes each dead slot onto the nearest surviving rank
	// in its mesh row (wrapping; falling back to the lowest surviving rank if
	// the whole row died). The survivor's node is oversubscribed: it hosts
	// its own slot plus the adopted one, which re-owns the dead rank's vertex
	// range from checkpoint. No new hardware is required, at the cost of load
	// imbalance on the host node.
	RebuildShrink RebuildMode = iota
	// RebuildRestore spawns a replacement on a fresh spare node appended to
	// the machine. Load balance is preserved, at the cost of requiring a
	// spare and paying the full graph-tier checkpoint read on the newcomer.
	RebuildRestore
)

// String names the mode.
func (m RebuildMode) String() string {
	switch m {
	case RebuildShrink:
		return "shrink"
	case RebuildRestore:
		return "restore"
	}
	return fmt.Sprintf("rebuildmode(%d)", int(m))
}

// NextEpoch builds the successor world after the listed ranks fail-stopped.
// The mesh shape and rank count are preserved — every collective still
// rendezvouses over the full R×C mesh, which the 1.5D schedule requires — but
// the dead slots are re-homed per mode, and the epoch number advances. The
// survivors' in-memory rank state does NOT carry over: the new world has
// fresh rendezvous structures and every slot (survivor or replacement) is
// expected to reload its state from the latest complete checkpoint, which is
// the only state all members can agree on.
//
// The caller's dead list must be the membership-vote verdict, identical on
// every rank, or the survivors would rebuild divergent worlds.
func (w *World) NextEpoch(dead []int, mode RebuildMode) (*World, error) {
	if len(dead) == 0 {
		return nil, fmt.Errorf("comm: NextEpoch with no dead ranks")
	}
	isDead := make(map[int]bool, len(dead))
	for _, d := range dead {
		if d < 0 || d >= w.size {
			return nil, fmt.Errorf("comm: NextEpoch: dead rank %d out of [0,%d)", d, w.size)
		}
		isDead[d] = true
	}
	if len(isDead) == w.size {
		return nil, fmt.Errorf("comm: NextEpoch: all %d ranks dead, no survivors", w.size)
	}
	nw, err := NewWorldOpts(w.size, w.mesh, w.machine, w.opt)
	if err != nil {
		return nil, err
	}
	nw.epoch = w.epoch + 1
	copy(nw.nodeOf, w.nodeOf)
	if w.procOf != nil {
		copy(nw.procOf, w.procOf)
	}
	if len(w.evacProc) > 0 {
		nw.evacProc = make(map[int]bool, len(w.evacProc))
		for p := range w.evacProc {
			nw.evacProc[p] = true
		}
	}
	ds := make([]int, 0, len(isDead))
	for d := range isDead {
		ds = append(ds, d)
	}
	slices.Sort(ds)
	// Restore mode prefers spare processes: a process that hosted no ranks in
	// the outgoing world is idle capacity, so each dead process's ranks are
	// re-homed onto one spare (ascending process order — a pure function of
	// the old mapping and the dead list, so every process picks the same
	// spares without an exchange). When spares run out, the dead slot folds
	// onto its hosting survivor's process as before. A spare that itself died
	// silently may be picked — its adopted ranks are then voted dead next
	// epoch, the spare joins the evacuated set, and the next spare takes
	// over, so progress is still bounded by the spare count. Processes an
	// earlier epoch evacuated host no ranks either, but they are corpses,
	// not capacity: evacProc keeps them out of the pool.
	var spares []int
	var spareOf map[int]int
	if mode == RebuildRestore && w.procOf != nil && w.dist != nil {
		hasRank := make([]bool, w.dist.Group.Procs())
		for _, p := range w.procOf {
			hasRank[p] = true
		}
		for p := range hasRank {
			if !hasRank[p] && !w.evacProc[p] {
				spares = append(spares, p)
			}
		}
		spareOf = make(map[int]int)
	}
	for _, d := range ds {
		// The hosting survivor: nearest surviving rank in the dead slot's
		// mesh row (wrapping), falling back to the lowest survivor.
		host := -1
		row, col := w.mesh.RowOf(d), w.mesh.ColOf(d)
		for off := 1; off < w.mesh.Cols; off++ {
			cand := w.mesh.RankAt(row, (col+off)%w.mesh.Cols)
			if !isDead[cand] {
				host = cand
				break
			}
		}
		if host < 0 { // whole row dead: lowest surviving rank
			for r := 0; r < w.size; r++ {
				if !isDead[r] {
					host = r
					break
				}
			}
		}
		switch mode {
		case RebuildRestore:
			nw.nodeOf[d] = nw.machine.Nodes
			nw.machine.Nodes++
		default: // RebuildShrink
			nw.nodeOf[d] = nw.nodeOf[host]
		}
		// Across processes: restore adopts a spare process when one is
		// available (all of a dead process's ranks move to the same spare);
		// otherwise — and always in shrink mode — the slot's goroutine folds
		// onto the host's process.
		if nw.procOf != nil {
			// The process that hosted the dead rank is a corpse from here on:
			// record it so no later epoch mistakes it for an idle spare.
			if nw.evacProc == nil {
				nw.evacProc = make(map[int]bool)
			}
			nw.evacProc[w.procOf[d]] = true
			target := nw.procOf[host]
			if mode == RebuildRestore && spareOf != nil {
				oldProc := w.procOf[d]
				if sp, ok := spareOf[oldProc]; ok {
					target = sp
				} else if len(spares) > 0 {
					target = spares[0]
					spareOf[oldProc] = target
					spares = spares[1:]
				}
			}
			nw.procOf[d] = target
		}
	}
	if nw.dist != nil {
		// Re-homing changed which members are local; rebuild the
		// communicator geometry (barrier sizes, leaders, remote targets).
		nw.initComms()
	}
	return nw, nil
}

// Run executes fn once per locally hosted rank, each on its own goroutine,
// and returns when all complete. On the in-process backend every rank is
// local; on the socket backend the remote ranks run inside their own
// processes' concurrent Run calls, with contributions exchanged over the
// wire. Panics in any local rank are re-raised after all goroutines stop.
func (w *World) Run(fn func(*Rank)) {
	if w.dist != nil {
		w.gen = w.dist.Group.beginRun(w.epoch)
	}
	local := w.LocalRanks()
	var wg sync.WaitGroup
	panics := make([]any, len(local))
	for idx, id := range local {
		wg.Add(1)
		go func(idx, id int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics[idx] = p
				}
			}()
			fn(w.newRank(id))
		}(idx, id)
	}
	wg.Wait()
	for idx, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("comm: rank %d panicked: %v", local[idx], p))
		}
	}
}

// Rank is one process's handle: its identity plus world/row/column
// communicators and its private traffic and fault stats.
type Rank struct {
	ID     int
	Row    int // mesh row
	Col    int // mesh column
	World  *Comm
	RowC   *Comm // communicator over my mesh row
	ColC   *Comm // communicator over my mesh column
	Stats  VolumeStats
	Faults FaultStats

	w    *World
	tr   *trace.Stream // nil unless WorldOptions.Trace is installed
	seq  int64         // collectives this rank has entered (transport keying)
	sums int64         // envelope checksums this rank has computed
	dead bool          // fail-stop latch: set by the first Kill action, never cleared
	iter int64         // engine-declared iteration label (-1 outside an iteration)
	tag  int           // engine-declared schedule-position label (-1 untagged)
}

// Faulty reports whether collectives on this rank's world can return errors
// at all: a fault transport is installed, or the world spans processes over
// the socket backend (where a peer can genuinely die mid-collective). The
// resilient engine keys its votes, snapshots and retries off this.
func (r *Rank) Faulty() bool { return r.w.opt.Transport != nil || r.w.dist != nil }

// Trace returns the rank's span stream, or nil when tracing is off. The
// stream is single-writer: only the goroutine occupying the rank slot may
// emit on it.
func (r *Rank) Trace() *trace.Stream { return r.tr }

// Dead reports whether this rank has fail-stopped. A dead rank keeps
// executing the collective schedule as a zombie (so rendezvous never
// deadlocks) but every collective it joins fails with ErrRankDead; its
// goroutine doubles as the failure detector, voting its own death on the
// control plane.
func (r *Rank) Dead() bool { return r.dead }

// Epoch returns the world epoch this rank is running in.
func (r *Rank) Epoch() int { return r.w.epoch }

// SetIter labels subsequent collectives with the engine's iteration number
// (-1 = outside any iteration). Purely advisory transport metadata.
func (r *Rank) SetIter(iter int64) { r.iter = iter }

// SetTag labels subsequent collectives with a schedule position (-1 =
// untagged). The core engine tags kernel collectives with their component
// index, so transports can target "the collective during component c".
func (r *Rank) SetTag(tag int) { r.tag = tag }

// intercept advances the rank's collective sequence number and consults the
// transport. It applies the delay (the rank sleeps before contributing) and
// records injected faults; Fail suppresses the sleep since a failed send
// never occupies the wire. A dead rank is not re-intercepted: it contributes
// a dead envelope to everything, forever.
func (r *Rank) intercept(kind Kind, commSize int) FaultAction {
	r.seq++
	t := r.w.opt.Transport
	if t == nil {
		return FaultAction{}
	}
	if r.dead {
		return FaultAction{Kill: true}
	}
	act := t.Intercept(Call{
		Rank:      r.ID,
		Supernode: r.w.machine.Supernode(r.w.nodeOf[r.ID]),
		Kind:      kind,
		Seq:       r.seq,
		CommSize:  commSize,
		Iter:      r.iter,
		Tag:       r.tag,
	})
	if act.Kill {
		r.dead = true
		r.Faults.Kills++
		return act
	}
	if act.Fail {
		r.Faults.Failures++
		return act
	}
	if act.Withhold {
		r.Faults.Stalls++
	}
	if act.Delay > 0 {
		r.Faults.Delays++
		r.Faults.DelayTime += act.Delay
		time.Sleep(act.Delay)
	}
	return act
}

func (w *World) newRank(id int) *Rank {
	r := &Rank{ID: id, Row: w.mesh.RowOf(id), Col: w.mesh.ColOf(id), w: w, iter: -1, tag: -1}
	if w.streams != nil {
		r.tr = w.streams[id]
	}
	r.World = &Comm{sh: w.world, me: id, rank: r, scope: "world"}
	r.RowC = &Comm{sh: w.rows[r.Row], me: r.Col, rank: r, scope: "row"}
	r.ColC = &Comm{sh: w.cols[r.Col], me: r.Row, rank: r, scope: "col"}
	return r
}

// Comm is one rank's handle on a communicator.
type Comm struct {
	sh    *shared
	me    int // my member index
	rank  *Rank
	scope string // "world", "row" or "col" (trace span labeling)
	seq   uint64 // collectives entered on this communicator this Run (wire keying)
}

// Size returns the number of members.
func (c *Comm) Size() int { return len(c.sh.members) }

// Rank returns the caller's member index within the communicator.
func (c *Comm) Rank() int { return c.me }

// WorldRank returns the world rank of member i.
func (c *Comm) WorldRank(i int) int { return c.sh.members[i] }

// Barrier synchronizes all members. Under fault injection it behaves like
// the other collectives: a failed or withheld arrival surfaces as a typed
// error on every member (there is no payload, so corruption cannot occur).
func (c *Comm) Barrier() error {
	return c.collective(KindBarrier, "barrier", nil, nil, nil)
}

// traceToken carries a collective span's entry state between traceEnter and
// traceExit. The zero value means tracing is off.
type traceToken struct {
	start int64
	base  VolumeStats
	on    bool
}

// traceEnter opens a collective span: the one nil check the hot path pays
// when tracing is off.
func (c *Comm) traceEnter() traceToken {
	tr := c.rank.tr
	if tr == nil {
		return traceToken{}
	}
	return traceToken{start: tr.Now(), base: c.rank.Stats, on: true}
}

// traceExit closes a collective span, attributing the payload bytes the
// caller sent during it, split intra/inter supernode. Spans nest like a
// flame graph: a composite collective's span covers the bytes of the inner
// collectives it issued (total semantics, not self).
func (c *Comm) traceExit(name string, tok traceToken, err error) {
	if !tok.on {
		return
	}
	tr := c.rank.tr
	d := c.rank.Stats.Delta(&tok.base)
	intra, inter := d.Totals()
	sp := trace.Span{
		Kind:  trace.KindCollective,
		Epoch: c.rank.w.epoch,
		Iter:  c.rank.iter,
		Step:  -1,
		Tag:   c.rank.tag,
		Name:  name + "/" + c.scope,
		Start: tok.start,
		Dur:   tr.Now() - tok.start,

		IntraBytes: intra,
		InterBytes: inter,
	}
	if err != nil {
		sp.Err = 1
	}
	tr.Emit(sp)
}

// verify inspects the contributions posted for the current collective and
// returns the agreed typed error, or nil. Verification runs only where
// collectives can fail (Rank.Faulty): under an injected-fault transport, and
// always on the socket backend — a real peer process can die or corrupt a
// frame without any transport installed, and the failure detector's
// dead-peer synthesis only surfaces as ErrRankDead if verify runs. It must
// run between the opening and closing barriers. Every member scans in the
// same order over the same metadata, so all members of the communicator
// reach the same verdict — precedence is rank death, then outright failure,
// then stall, then corruption, then deadline, ties broken by lowest member
// index. Death ranks first because it is the only non-retryable verdict: a
// retry loop that saw ErrCollectiveFailed when a dead rank was also present
// would spin pointlessly.
func (c *Comm) verify(kind Kind) error {
	if !c.rank.Faulty() {
		return nil
	}
	slots := c.sh.slots
	fail := func(j int, sentinel error) error {
		c.rank.Faults.Errors++
		return &CollectiveError{Kind: kind, Seq: c.rank.seq, Rank: c.sh.members[j], Err: sentinel}
	}
	for j := range slots {
		if slots[j].dead {
			return fail(j, ErrRankDead)
		}
	}
	for j := range slots {
		if slots[j].failed {
			return fail(j, ErrCollectiveFailed)
		}
	}
	for j := range slots {
		if slots[j].withheld {
			return fail(j, ErrRankStalled)
		}
	}
	for j := range slots {
		if slots[j].posted != slots[j].declared {
			return fail(j, ErrPayloadCorrupted)
		}
	}
	if d := c.rank.w.opt.Deadline; d > 0 {
		for j := range slots {
			if slots[j].delay > d {
				return fail(j, ErrDeadlineExceeded)
			}
		}
	}
	return nil
}

// account records sending n bytes from the caller to member dst under kind.
func (c *Comm) account(kind Kind, dst int, n int64) {
	if n == 0 {
		return
	}
	// Supernode locality follows the hosting nodes of the current epoch, not
	// the rank IDs: after a shrink rebuild an adopted slot lives on its
	// host's node, so its traffic prices as that node's.
	src := c.rank.w.nodeOf[c.sh.members[c.me]]
	d := c.rank.w.nodeOf[c.sh.members[dst]]
	if c.rank.w.machine.SameSupernode(src, d) {
		c.rank.Stats.IntraBytes[kind] += n
	} else {
		c.rank.Stats.InterBytes[kind] += n
	}
}
