package comm

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/wire"
)

// accountingOps runs every exported data-plane collective once on c, with
// contributions whose lengths vary by member so each byte formula (uneven
// segments, per-destination buffers, encoded sparse frames) is exercised.
func accountingOps(r *Rank, c *Comm) {
	k, me := c.Size(), c.Rank()
	send := make([][]int32, k)
	for j := range send {
		send[j] = make([]int32, me+j)
	}
	Must(Alltoallv(c, send))
	Must(Allgatherv(c, make([]uint64, me+1)))
	Must0(AllgathervUniform(c, make([]uint16, 3), make([]uint16, 3*k)))
	Must(ReduceScatterOr(c, make([]uint64, 7)))
	lo, hi := segBounds(5, k, me)
	Must0(AllgathervSegments(c, make([]uint64, hi-lo), make([]uint64, 5)))
	Must0(AllreduceOr(c, make([]uint64, 11)))
	Must0(AllreduceMaxInt64(c, make([]int64, 13)))
	Must(AllreduceSumInt64(c, 1))
	Must(AllreduceSumInt64s(c, make([]int64, 4)))
	Must0(AllreduceSumFloat64(c, make([]float64, 9)))
	ups := make([]SparseUpdate, me)
	for i := range ups {
		ups[i].Dst = int32(i % k)
	}
	Must(AllgatherSparse(c, ups))
	Must0(c.Barrier())
}

// pinnedAccounting is the per-Kind traffic a run of accountingOps on the
// world, row and column communicators records, summed over every rank.
type pinnedAccounting struct {
	calls, intra, inter [NumKinds]int64
}

func (p *pinnedAccounting) add(s *VolumeStats) {
	for k := range NumKinds {
		p.calls[k] += s.Calls[k]
		p.intra[k] += s.IntraBytes[k]
		p.inter[k] += s.InterBytes[k]
	}
}

// collectiveSpanNames lists the distinct collective span names a tracer
// recorded, sorted.
func collectiveSpanNames(tr *trace.Tracer) []string {
	var names []string
	for _, sp := range tr.Spans() {
		if sp.Kind == trace.KindCollective && !slices.Contains(names, sp.Name) {
			names = append(names, sp.Name)
		}
	}
	slices.Sort(names)
	return names
}

// TestCollectiveAccountingPinned pins what the collectives record — per-Kind
// call counts and intra/inter-supernode payload bytes, the collective span
// names, and on sockets the bytes the wire endpoint sends — for one run of
// every data-plane collective on the world, row and column communicators of
// two worlds: a 2×3 in-process mesh whose supernodes (four nodes each) split
// row 1 and every column, and a 2×2 mesh over two socket-connected processes
// with two-node supernodes. The socket run also crosses the control plane
// and the process plane (Fence, ExchangeOutcome), whose frames count in the
// wire bytes. The figures are the protocol's; a refactor of the collectives
// must leave every one of them unchanged.
func TestCollectiveAccountingPinned(t *testing.T) {
	wantNames := []string{}
	for _, scope := range []string{"col", "row", "world"} {
		for _, n := range []string{"allgather_sparse", "allgatherv", "allgatherv_uniform", "allreduce_max",
			"allreduce_sum", "allreduce_sum_f64", "alltoallv", "barrier", "reduce_scatter_or"} {
			wantNames = append(wantNames, n+"/"+scope)
		}
	}
	slices.Sort(wantNames)
	check := func(t *testing.T, got pinnedAccounting, want pinnedAccounting, names []string) {
		t.Helper()
		if got != want {
			t.Errorf("accounting changed:\n got  %+v\n want %+v", got, want)
		}
		if !slices.Equal(names, wantNames) {
			t.Errorf("collective span names:\n got  %v\n want %v", names, wantNames)
		}
	}

	t.Run("inproc", func(t *testing.T) {
		mesh := topology.Mesh{Rows: 2, Cols: 3}
		machine := topology.NewSunway(mesh.Size())
		machine.SupernodeSize = 4
		tr := trace.New()
		w, err := NewWorldOpts(mesh.Size(), mesh, machine, WorldOptions{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]VolumeStats, mesh.Size())
		w.Run(func(r *Rank) {
			for _, c := range []*Comm{r.World, r.RowC, r.ColC} {
				accountingOps(r, c)
			}
			stats[r.ID] = r.Stats
		})
		var got pinnedAccounting
		for i := range stats {
			got.add(&stats[i])
		}
		check(t, got, pinnedAccounting{
			calls: [NumKinds]int64{18, 108, 108, 18, 18},
			intra: [NumKinds]int64{296, 2488, 2904, 0, 1080},
			inter: [NumKinds]int64{424, 2552, 2856, 0, 1464},
		}, collectiveSpanNames(tr))
	})

	t.Run("socket", func(t *testing.T) {
		mesh := topology.Mesh{Rows: 2, Cols: 2}
		machine := topology.NewSunway(mesh.Size())
		machine.SupernodeSize = 2
		gs := pinnedGroups(t, 2)
		ws := make([]*World, len(gs))
		trs := make([]*trace.Tracer, len(gs))
		for i, g := range gs {
			trs[i] = trace.New()
			w, err := NewWorldOpts(mesh.Size(), mesh, machine, WorldOptions{
				Trace: trs[i],
				Dist:  &DistConfig{Group: g, ProcOf: ContiguousProcOf(mesh.Size(), 2)},
			})
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		var mu sync.Mutex
		var got pinnedAccounting
		runSPMD(ws, func(r *Rank) {
			for _, c := range []*Comm{r.World, r.RowC, r.ColC} {
				accountingOps(r, c)
			}
			ControlSumInt64(r.World, 1)
			ControlOrWords(r.ColC, make([]uint64, 2))
			ControlGatherSlices(r.RowC, make([]int64, r.ID))
			mu.Lock()
			got.add(&r.Stats)
			mu.Unlock()
		})
		var wg sync.WaitGroup
		for i, w := range ws {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.Fence()
				if dead, code := w.ExchangeOutcome([]int{i}, uint8(i)); !slices.Equal(dead, []int{0, 1}) || code != 1 {
					t.Errorf("proc %d: outcome %v code %d, want [0 1] code 1", i, dead, code)
				}
			}()
		}
		wg.Wait()
		check(t, got, pinnedAccounting{
			calls: [NumKinds]int64{12, 72, 72, 12, 12},
			intra: [NumKinds]int64{64, 1088, 1280, 0, 256},
			inter: [NumKinds]int64{112, 1496, 1760, 0, 432},
		}, collectiveSpanNames(trs[0]))
		// The sender counts a frame's bytes once its write returns, which can
		// be after the receiver already acted on it: poll briefly.
		for p, want := range []uint64{6913, 7089} {
			sent := gs[p].WireStats().BytesSent
			for end := time.Now().Add(time.Second); sent != want && time.Now().Before(end); {
				time.Sleep(time.Millisecond)
				sent = gs[p].WireStats().BytesSent
			}
			if sent != want {
				t.Errorf("proc %d: wire bytes sent %d, want %d", p, sent, want)
			}
		}
	})
}

// pinnedGroups is distGroups with heartbeats slow enough that no scheduling
// stall of the host tears a connection down: a reconnect would resend
// frames and move the wire byte counts the accounting test pins.
func pinnedGroups(t testing.TB, procs int) []*Group {
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
			HeartbeatEvery: 250 * time.Millisecond,
			PeerDeadAfter:  10 * time.Second,
			DialTimeout:    time.Second,
			WriteTimeout:   5 * time.Second,
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
