package faultinject

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/topology"
	"repro/internal/wire"
)

// TestConnDropIsAbsorbedByReconnect wires a parsed drop@conn plan into a real
// two-process socket world: the drop cuts the connection mid-run, and the
// wire layer's reconnect + replay must absorb it — every collective still
// returns the right answer, no rank sees an error, and the endpoint counters
// show the reconnect actually happened.
func TestConnDropIsAbsorbedByReconnect(t *testing.T) {
	plan, err := Parse("drop@conn=0-1,frame=2,hang@conn=1-0,frame=4,dur=40ms")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	addrs := []string{
		fmt.Sprintf("unix:%s/p0.sock", dir),
		fmt.Sprintf("unix:%s/p1.sock", dir),
	}
	mesh := topology.Mesh{Rows: 1, Cols: 4}
	n := mesh.Size()
	groups := make([]*comm.Group, 2)
	worlds := make([]*comm.World, 2)
	for i := range groups {
		g, err := comm.NewGroup(wire.Config{
			Proc:           i,
			Addrs:          addrs,
			Fault:          plan,
			HeartbeatEvery: 10 * time.Millisecond,
			PeerDeadAfter:  2 * time.Second,
			DialTimeout:    200 * time.Millisecond,
			WriteTimeout:   time.Second,
			BackoffBase:    2 * time.Millisecond,
			BackoffCap:     20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		groups[i] = g
		defer g.Close()
		w, err := comm.NewWorldOpts(n, mesh, topology.NewSunway(n), comm.WorldOptions{
			Dist: &comm.DistConfig{Group: g, ProcOf: comm.ContiguousProcOf(n, n/2)},
		})
		if err != nil {
			t.Fatal(err)
		}
		worlds[i] = w
	}
	var wg sync.WaitGroup
	for _, w := range worlds {
		wg.Add(1)
		go func(w *comm.World) {
			defer wg.Done()
			w.Run(func(r *comm.Rank) {
				for round := 0; round < 10; round++ {
					sum, err := comm.AllreduceSumInt64(r.World, int64(r.ID))
					if err != nil {
						t.Errorf("round %d rank %d: %v", round, r.ID, err)
						return
					}
					if want := int64(n * (n - 1) / 2); sum != want {
						t.Errorf("round %d rank %d: sum %d, want %d", round, r.ID, sum, want)
					}
				}
			})
		}(w)
	}
	wg.Wait()
	stats := groups[0].WireStats()
	if stats.Reconnects == 0 {
		t.Errorf("drop did not force a reconnect: %+v", stats)
	}
	if stats.PeersLost != 0 {
		t.Errorf("transient drop escalated to a dead verdict: %+v", stats)
	}
}
