package comm

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/wire"
)

// distGroups builds a connected process group over Unix sockets in the test's
// temp dir, with timings tightened for test latency. Groups are closed
// gracefully at cleanup (tests that Abort do so explicitly first; shutdown is
// idempotent).
func distGroups(t testing.TB, procs int) []*Group {
	t.Helper()
	dir := t.TempDir()
	addrs := make([]string, procs)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("unix:%s/p%d.sock", dir, i)
	}
	gs := make([]*Group, procs)
	for i := range gs {
		g, err := NewGroup(wire.Config{
			Proc:           i,
			Addrs:          addrs,
			HeartbeatEvery: 10 * time.Millisecond,
			PeerDeadAfter:  400 * time.Millisecond,
			DialTimeout:    200 * time.Millisecond,
			WriteTimeout:   time.Second,
			BackoffBase:    2 * time.Millisecond,
			BackoffCap:     20 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("group %d: %v", i, err)
		}
		gs[i] = g
		t.Cleanup(func() { g.Close() })
	}
	return gs
}

// distWorlds builds one world per process of a fresh group, splitting the
// mesh's ranks contiguously across the processes. mkOpt fills the non-Dist
// options per process (transport, deadline); it may be nil.
func distWorlds(t testing.TB, procs int, mesh topology.Mesh, mkOpt func(proc int) WorldOptions) ([]*World, []*Group) {
	t.Helper()
	n := mesh.Size()
	if n%procs != 0 {
		t.Fatalf("mesh size %d not divisible by %d procs", n, procs)
	}
	gs := distGroups(t, procs)
	ws := make([]*World, procs)
	for i, g := range gs {
		var opt WorldOptions
		if mkOpt != nil {
			opt = mkOpt(i)
		}
		opt.Dist = &DistConfig{Group: g, ProcOf: ContiguousProcOf(n, n/procs)}
		w, err := NewWorldOpts(n, mesh, topology.NewSunway(n), opt)
		if err != nil {
			t.Fatalf("world %d: %v", i, err)
		}
		ws[i] = w
	}
	return ws, gs
}

// runSPMD executes body on every world concurrently — the single-test-binary
// stand-in for P OS processes each calling Run on its own world.
func runSPMD(ws []*World, body func(*Rank)) {
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *World) {
			defer wg.Done()
			w.Run(body)
		}(w)
	}
	wg.Wait()
}

func TestContiguousProcOf(t *testing.T) {
	got := ContiguousProcOf(6, 2)
	want := []int{0, 0, 1, 1, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ContiguousProcOf(6,2) = %v, want %v", got, want)
		}
	}
}

// TestDistCollectivesAgreeWithClosedForms runs every collective on a world
// split across processes and checks the results against their closed forms on
// every rank — world, row, AND column communicators (rows are split across
// processes by the contiguous map; columns straddle them).
func TestDistCollectivesAgreeWithClosedForms(t *testing.T) {
	for _, procs := range []int{2, 3} {
		mesh := topology.Mesh{Rows: 2, Cols: 3}
		ws, _ := distWorlds(t, procs, mesh, nil)
		n := mesh.Size()
		runSPMD(ws, func(r *Rank) {
			// World allreduce sum: n(n-1)/2.
			sum := Must(AllreduceSumInt64(r.World, int64(r.ID)))
			if want := int64(n * (n - 1) / 2); sum != want {
				t.Errorf("procs=%d rank %d: world sum %d, want %d", procs, r.ID, sum, want)
			}
			// Allgatherv: member j posted {j+1}.
			out := Must(Allgatherv(r.World, []uint64{uint64(r.ID) + 1}))
			for j := range out {
				if len(out[j]) != 1 || out[j][0] != uint64(j)+1 {
					t.Errorf("procs=%d rank %d: allgatherv[%d] = %v", procs, r.ID, j, out[j])
				}
			}
			// Alltoallv: member j sent us {j, me}.
			send := make([][]int64, n)
			for j := range send {
				send[j] = []int64{int64(r.ID), int64(j)}
			}
			recv := Must(Alltoallv(r.World, send))
			for j := range recv {
				if len(recv[j]) != 2 || recv[j][0] != int64(j) || recv[j][1] != int64(r.ID) {
					t.Errorf("procs=%d rank %d: alltoallv[%d] = %v", procs, r.ID, j, recv[j])
				}
			}
			// AllreduceOr over per-rank bits: all n bits set afterwards.
			words := []uint64{1 << uint(r.ID)}
			Must0(AllreduceOr(r.World, words))
			if want := uint64(1<<uint(n)) - 1; words[0] != want {
				t.Errorf("procs=%d rank %d: or %#x, want %#x", procs, r.ID, words[0], want)
			}
			// AllreduceMaxInt64: member j owns slot j; the tail slot's max is
			// the highest rank.
			maxes := make([]int64, n+1)
			for j := range maxes {
				maxes[j] = -1
			}
			maxes[r.ID], maxes[n] = int64(r.ID*10), int64(r.ID)
			Must0(AllreduceMaxInt64(r.World, maxes))
			for j := 0; j < n; j++ {
				if maxes[j] != int64(j*10) {
					t.Errorf("procs=%d rank %d: max[%d] = %d, want %d", procs, r.ID, j, maxes[j], j*10)
				}
			}
			if maxes[n] != int64(n-1) {
				t.Errorf("procs=%d rank %d: max tail %d, want %d", procs, r.ID, maxes[n], n-1)
			}
			// AllreduceSumFloat64: every member holds the member-order sum.
			fs := []float64{float64(r.ID), 0.5}
			Must0(AllreduceSumFloat64(r.World, fs))
			if want := float64(n*(n-1)) / 2; fs[0] != want || fs[1] != 0.5*float64(n) {
				t.Errorf("procs=%d rank %d: float sum %v, want [%g %g]", procs, r.ID, fs, want, 0.5*float64(n))
			}
			// AllgathervUniform: member j's pair lands at dst[2j:2j+2].
			uni := make([]int32, 2*n)
			Must0(AllgathervUniform(r.World, []int32{int32(r.ID), int32(2 * r.ID)}, uni))
			for j := 0; j < n; j++ {
				if uni[2*j] != int32(j) || uni[2*j+1] != int32(2*j) {
					t.Errorf("procs=%d rank %d: uniform[%d] = %v", procs, r.ID, j, uni[2*j:2*j+2])
				}
			}
			// ReduceScatterOr: every word carries every member's bit; the
			// caller gets its block of the 2n+1 words.
			rsIn := make([]uint64, 2*n+1)
			for i := range rsIn {
				rsIn[i] = 1 << uint(r.ID)
			}
			seg := Must(ReduceScatterOr(r.World, rsIn))
			if lo, hi := segBounds(len(rsIn), n, r.ID); len(seg) != hi-lo {
				t.Errorf("procs=%d rank %d: reduce-scatter segment %d words, want %d", procs, r.ID, len(seg), hi-lo)
			}
			for i, v := range seg {
				if want := uint64(1<<uint(n)) - 1; v != want {
					t.Errorf("procs=%d rank %d: reduce-scatter[%d] = %#x, want %#x", procs, r.ID, i, v, want)
				}
			}
			// ControlGatherSlices: member j posts j copies of j.
			mine := make([]int32, r.ID)
			for i := range mine {
				mine[i] = int32(r.ID)
			}
			gathered := ControlGatherSlices(r.World, mine)
			for j, g := range gathered {
				if len(g) != j || (j > 0 && (g[0] != int32(j) || g[j-1] != int32(j))) {
					t.Errorf("procs=%d rank %d: control gather[%d] = %v", procs, r.ID, j, g)
				}
			}
			// Row communicator (split across processes when procs=2: row 0 is
			// ranks 0-2 = procs 0,0,1).
			rsum := Must(AllreduceSumInt64(r.RowC, int64(r.ID)))
			var rwant int64
			for c := 0; c < mesh.Cols; c++ {
				rwant += int64(mesh.RankAt(r.Row, c))
			}
			if rsum != rwant {
				t.Errorf("procs=%d rank %d: row sum %d, want %d", procs, r.ID, rsum, rwant)
			}
			// Column communicator (always straddles processes here).
			csum := Must(AllreduceSumInt64(r.ColC, int64(r.ID)))
			var cwant int64
			for row := 0; row < mesh.Rows; row++ {
				cwant += int64(mesh.RankAt(row, r.Col))
			}
			if csum != cwant {
				t.Errorf("procs=%d rank %d: col sum %d, want %d", procs, r.ID, csum, cwant)
			}
			// Sparse exchange: rank j addresses one update to every member.
			ups := make([]SparseUpdate, n)
			for j := range ups {
				ups[j] = SparseUpdate{Dst: int32(j), Tag: 1, Off: int64(r.ID), Val: int64(r.ID * 100)}
			}
			got := Must(AllgatherSparse(r.World, ups))
			for j := range got {
				if len(got[j]) != 1 || got[j][0].Val != int64(j*100) || got[j][0].Off != int64(j) {
					t.Errorf("procs=%d rank %d: sparse[%d] = %v", procs, r.ID, j, got[j])
				}
			}
			// Control plane.
			if csum := ControlSumInt64(r.World, 2); csum != int64(2*n) {
				t.Errorf("procs=%d rank %d: control sum %d, want %d", procs, r.ID, csum, 2*n)
			}
			cw := ControlOrWords(r.World, []uint64{1 << uint(r.ID), 0})
			if want := uint64(1<<uint(n)) - 1; cw[0] != want {
				t.Errorf("procs=%d rank %d: control or %#x, want %#x", procs, r.ID, cw[0], want)
			}
			Must0(r.World.Barrier())
		})
	}
}

// TestDistFaultParity injects each fault kind on a world split across two
// processes: every rank on every process must observe the same typed error
// naming the faulty rank, exactly as on the in-process backend (the envelope
// carries the fault, so the chaos surface is backend-independent).
func TestDistFaultParity(t *testing.T) {
	faults := []struct {
		name string
		act  FaultAction
		want error
	}{
		{"fail", FaultAction{Fail: true}, ErrCollectiveFailed},
		{"stall", FaultAction{Withhold: true}, ErrRankStalled},
		{"corrupt", FaultAction{Corrupt: true}, ErrPayloadCorrupted},
		{"delay", FaultAction{Delay: 2 * time.Millisecond}, ErrDeadlineExceeded},
		{"kill", FaultAction{Kill: true}, ErrRankDead},
	}
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	for _, f := range faults {
		for _, op := range collectiveOps {
			victim := mesh.Size() - 1 // hosted by process 1
			if op.name == "barrier" && (f.name == "corrupt" || f.name == "delay") {
				continue // no payload to corrupt; no deadline on pure sync
			}
			f, op := f, op
			t.Run(f.name+"/"+op.name, func(t *testing.T) {
				ws, _ := distWorlds(t, 2, mesh, func(proc int) WorldOptions {
					return WorldOptions{
						Transport: scripted(func(c Call) FaultAction {
							if c.Rank == victim && c.Seq == 1 {
								return f.act
							}
							return FaultAction{}
						}),
						Deadline: time.Millisecond,
					}
				})
				runSPMD(ws, func(r *Rank) {
					err := op.run(r)
					if err == nil {
						t.Errorf("rank %d: nil error under %s", r.ID, f.name)
						return
					}
					if !errors.Is(err, f.want) {
						t.Errorf("rank %d: got %v, want %v", r.ID, err, f.want)
					}
					var ce *CollectiveError
					if errors.As(err, &ce) && ce.Rank != victim {
						t.Errorf("rank %d: error names rank %d, want %d", r.ID, ce.Rank, victim)
					}
				})
			})
		}
	}
}

// TestDistDeadProcessSurfacesErrRankDead kills a whole process (silent
// endpoint teardown, the SIGKILL analog) while the survivor is mid-schedule:
// the survivor's next collective must surface ErrRankDead for the dead
// process's ranks — synthesized by the failure detector, since a dead process
// has no zombie goroutines to post envelopes — and the control-plane vote
// must carry their death bits.
func TestDistDeadProcessSurfacesErrRankDead(t *testing.T) {
	mesh := topology.Mesh{Rows: 1, Cols: 4}
	ws, gs := distWorlds(t, 2, mesh, func(proc int) WorldOptions {
		return WorldOptions{Transport: scripted(func(Call) FaultAction { return FaultAction{} })}
	})
	var wg sync.WaitGroup
	wg.Add(2)
	// Process 1 completes one collective, then dies without a word.
	go func() {
		defer wg.Done()
		ws[1].Run(func(r *Rank) {
			Must0(r.World.Barrier())
		})
		gs[1].Abort()
	}()
	// Process 0 keeps running barriers; one of them has no live counterpart
	// on process 1. Whether even the FIRST one fails is a race the protocol
	// embraces: an abort may drop frames still queued on the dying process
	// (exactly like a SIGKILL), so the survivor only knows that SOME barrier
	// soon surfaces ErrRankDead.
	go func() {
		defer wg.Done()
		ws[0].Run(func(r *Rank) {
			var err error
			for i := 0; i < 4 && err == nil; i++ {
				err = r.World.Barrier()
			}
			if err == nil {
				t.Errorf("rank %d: nil error after peer process died", r.ID)
				return
			}
			if !errors.Is(err, ErrRankDead) {
				t.Errorf("rank %d: got %v, want ErrRankDead", r.ID, err)
			}
			var ce *CollectiveError
			if errors.As(err, &ce) && ws[0].ProcOf(ce.Rank) != 1 {
				t.Errorf("rank %d: error names rank %d, hosted by process %d, want 1",
					r.ID, ce.Rank, ws[0].ProcOf(ce.Rank))
			}
			// The membership vote synthesizes the dead ranks' own bits.
			words := ControlOrWords(r.World, make([]uint64, 2))
			for wr := 0; wr < ws[0].Size(); wr++ {
				wantBit := ws[0].ProcOf(wr) == 1
				gotBit := words[1+wr/64]&(1<<uint(wr%64)) != 0
				if gotBit != wantBit {
					t.Errorf("rank %d: vote bit for rank %d = %v, want %v", r.ID, wr, gotBit, wantBit)
				}
			}
		})
	}()
	wg.Wait()
}

// TestDistFence checks the process-level control barrier: all processes
// arrive, and once a process is declared dead the fence stops waiting for it.
func TestDistFence(t *testing.T) {
	mesh := topology.Mesh{Rows: 1, Cols: 3}
	ws, gs := distWorlds(t, 3, mesh, nil)
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ws[i].Fence()
			ws[i].Fence()
		}(i)
	}
	wg.Wait()
	// Kill process 2; the survivors' next fence must still return.
	gs[2].Abort()
	done := make(chan struct{})
	go func() {
		var wg2 sync.WaitGroup
		for _, i := range []int{0, 1} {
			wg2.Add(1)
			go func(i int) { defer wg2.Done(); ws[i].Fence() }(i)
		}
		wg2.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fence did not release after a process died")
	}
}

// TestDistOutcomeRevokesEpoch reproduces the divergent-verdict wedge: failure
// detection is asynchronous, so after a real kill one survivor can leave the
// epoch with a dead verdict while another — having received the victim's last
// in-flight frames — sails past the same vote clean and blocks on the
// leaver's next contribution, which will never come. The leaver's outcome
// announcement must revoke the epoch on the stragglers: their collective
// surfaces ErrRankDead for the departed process's rank instead of hanging,
// and the outcome exchange then unions the verdicts on every process.
func TestDistOutcomeRevokesEpoch(t *testing.T) {
	mesh := topology.Mesh{Rows: 1, Cols: 3}
	ws, _ := distWorlds(t, 3, mesh, nil)
	var mu sync.Mutex
	unions := make(map[int][]int)
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		// Process 0's rank abandons the schedule (its epoch ended early with
		// verdict dead=[0]); the process announces the outcome and waits.
		wg.Add(1)
		go func() {
			defer wg.Done()
			ws[0].Run(func(r *Rank) {})
			time.Sleep(50 * time.Millisecond) // let the stragglers block first
			dead, code := ws[0].ExchangeOutcome([]int{0}, 0)
			mu.Lock()
			unions[0] = dead
			mu.Unlock()
			if code != 0 {
				t.Errorf("proc 0: outcome code %d, want 0", code)
			}
		}()
		// Processes 1 and 2 are still mid-epoch: their allreduce needs rank
		// 0's contribution. Pre-revoke this waited forever — process 0 is
		// alive and heartbeating, so no failure-detector verdict ever fires.
		for _, i := range []int{1, 2} {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				var observed []int
				ws[i].Run(func(r *Rank) {
					err := AllreduceOr(r.World, []uint64{1 << uint(r.ID)})
					if !errors.Is(err, ErrRankDead) {
						t.Errorf("proc %d: got %v, want ErrRankDead", i, err)
						return
					}
					var ce *CollectiveError
					if errors.As(err, &ce) && ce.Rank != 0 {
						t.Errorf("proc %d: error names rank %d, want 0", i, ce.Rank)
					}
					observed = []int{0}
				})
				dead, _ := ws[i].ExchangeOutcome(observed, 0)
				mu.Lock()
				unions[i] = dead
				mu.Unlock()
			}(i)
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("epoch never revoked: stragglers still blocked on the departed process")
	}
	for i := 0; i < 3; i++ {
		if d := unions[i]; len(d) != 1 || d[0] != 0 {
			t.Fatalf("proc %d: outcome union %v, want [0]", i, d)
		}
	}
}

// TestDistNextEpochRehomesDeadSlots kills a rank via fault injection on a
// two-process world, has both processes vote and rebuild, and checks the
// successor world re-homes the dead slot's goroutine onto its host's process
// and completes collectives with the adopted slot participating.
func TestDistNextEpochRehomesDeadSlots(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	victim := 3 // hosted by process 1; its row-mate 2 is also on process 1
	ws, _ := distWorlds(t, 2, mesh, func(proc int) WorldOptions {
		var once sync.Once
		return WorldOptions{Transport: scripted(func(c Call) FaultAction {
			var act FaultAction
			if c.Rank == victim {
				once.Do(func() { act.Kill = true })
			}
			return act
		})}
	})
	next := make([]*World, len(ws))
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := ws[i]
			w.Run(func(r *Rank) {
				if err := r.World.Barrier(); !errors.Is(err, ErrRankDead) {
					t.Errorf("proc %d rank %d: got %v, want ErrRankDead", i, r.ID, err)
				}
			})
			nw, err := w.NextEpoch([]int{victim}, RebuildShrink)
			if err != nil {
				t.Errorf("proc %d: NextEpoch: %v", i, err)
				return
			}
			next[i] = nw
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("epoch-0 run failed")
	}
	host := mesh.RankAt(mesh.RowOf(victim), (mesh.ColOf(victim)+1)%mesh.Cols)
	for i, nw := range next {
		if nw.Epoch() != 1 {
			t.Fatalf("proc %d: epoch %d, want 1", i, nw.Epoch())
		}
		if got, want := nw.ProcOf(victim), ws[i].ProcOf(host); got != want {
			t.Fatalf("proc %d: dead slot on process %d, want host's process %d", i, got, want)
		}
	}
	// The rebuilt world completes collectives with all four slots live; the
	// adopted slot contributes from its new home.
	runSPMD(next, func(r *Rank) {
		sum, err := AllreduceSumInt64(r.World, int64(r.ID)+1)
		if err != nil {
			t.Errorf("epoch-1 rank %d: %v", r.ID, err)
			return
		}
		if want := int64(1 + 2 + 3 + 4); sum != want {
			t.Errorf("epoch-1 rank %d: sum %d, want %d", r.ID, sum, want)
		}
	})
}

// TestDistRunsBackToBack checks run-generation isolation: consecutive Run
// calls on the same worlds reuse communicator sequence numbers, and the
// generation stamp keeps their frames from colliding.
func TestDistRunsBackToBack(t *testing.T) {
	mesh := topology.Mesh{Rows: 1, Cols: 4}
	ws, _ := distWorlds(t, 2, mesh, nil)
	for round := 0; round < 3; round++ {
		want := int64(mesh.Size()*(mesh.Size()-1)/2) + int64(round*mesh.Size())
		runSPMD(ws, func(r *Rank) {
			sum := Must(AllreduceSumInt64(r.World, int64(r.ID+round)))
			if sum != want {
				t.Errorf("round %d rank %d: sum %d, want %d", round, r.ID, sum, want)
			}
		})
	}
}

// TestDistRouterStateBoundedByRun is the regression test for the marks leak:
// a long-lived socket world gained one watermark per communicator per Run
// (and one departed set per outcome exchange) and shed them only when the
// epoch advanced, so beginRun walked O(runs) entries under the router lock.
// State of a generation is dead once its Run has returned; after a thousand
// runs the maps hold what the live generation needs and nothing more.
func TestDistRouterStateBoundedByRun(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	ws, gs := distWorlds(t, 2, mesh, nil)
	const comms = 1 + 2 + 2 // world, rows, columns
	for round := 0; round < 1000; round++ {
		var wg sync.WaitGroup
		for _, w := range ws {
			wg.Add(1)
			go func(w *World) {
				defer wg.Done()
				w.Run(func(r *Rank) {
					Must(AllreduceSumInt64(r.World, 1))
					Must(AllreduceSumInt64(r.RowC, 1))
					Must(AllreduceSumInt64(r.ColC, 1))
				})
				w.ExchangeOutcome(nil, 0)
			}(w)
		}
		wg.Wait()
	}
	for p, g := range gs {
		g.mu.Lock()
		marks, arrivals, departed := len(g.marks), len(g.arrivals), len(g.departed)
		g.mu.Unlock()
		if marks > comms || arrivals > comms || departed > comms {
			t.Errorf("proc %d after 1000 runs: %d marks, %d arrivals, %d departed sets; want each <= %d",
				p, marks, arrivals, departed, comms)
		}
	}
}
