package comm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/topology"
)

// killWorld builds a world whose transport fail-stops the given rank at its
// first intercepted collective.
func killWorld(t *testing.T, mesh topology.Mesh, victim int) *World {
	t.Helper()
	n := mesh.Size()
	var once sync.Once
	w, err := NewWorldOpts(n, mesh, topology.NewSunway(n), WorldOptions{
		Transport: scripted(func(c Call) FaultAction {
			var act FaultAction
			if c.Rank == victim {
				once.Do(func() { act.Kill = true })
			}
			return act
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestKillSurfacesErrRankDeadEverywhere kills one rank and asserts every
// collective on every mesh shape surfaces ErrRankDead naming the victim on
// EVERY member — including the victim itself — without deadlocking. The kill
// latches: the once-only transport verdict must keep the rank dead on later
// collectives with no further transport involvement.
func TestKillSurfacesErrRankDeadEverywhere(t *testing.T) {
	meshes := []topology.Mesh{
		{Rows: 1, Cols: 4}, {Rows: 2, Cols: 2}, {Rows: 4, Cols: 1}, {Rows: 2, Cols: 3},
	}
	for _, mesh := range meshes {
		for _, op := range collectiveOps {
			victim := mesh.Size() - 1
			w := killWorld(t, mesh, victim)
			kills := make([]int64, mesh.Size())
			w.Run(func(r *Rank) {
				defer func() { kills[r.ID] = r.Faults.Kills }()
				// Round 1: the kill fires somewhere inside the op.
				for round := 0; round < 3; round++ {
					err := op.run(r)
					if err == nil {
						panicf(t, "%v/%s round %d: rank %d got nil error under a kill", mesh, op.name, round, r.ID)
					}
					if !errors.Is(err, ErrRankDead) {
						panicf(t, "%v/%s round %d: rank %d error %v is not ErrRankDead", mesh, op.name, round, r.ID, err)
					}
					var ce *CollectiveError
					if !errors.As(err, &ce) {
						panicf(t, "%v/%s: rank %d error %T is not *CollectiveError", mesh, op.name, r.ID, err)
					}
					if ce.Rank != victim {
						panicf(t, "%v/%s: rank %d blames rank %d, want %d", mesh, op.name, r.ID, ce.Rank, victim)
					}
				}
				if (r.ID == victim) != r.Dead() {
					panicf(t, "%v/%s: rank %d Dead()=%v", mesh, op.name, r.ID, r.Dead())
				}
			})
			if kills[victim] != 1 {
				t.Fatalf("%v/%s: victim recorded %d kills, want 1", mesh, op.name, kills[victim])
			}
		}
	}
}

// TestDeadRankStaysOnControlPlane is the zombie property the recovery
// protocol leans on: a dead rank keeps participating in control collectives,
// carrying its payload, so survivors need no timeout to agree on the death —
// the zombie is its own failure detector.
func TestDeadRankStaysOnControlPlane(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	w := killWorld(t, mesh, 2)
	w.Run(func(r *Rank) {
		_ = r.World.Barrier() // fires the kill on rank 2
		if got := ControlSumInt64(r.World, int64(r.ID)+1); got != 1+2+3+4 {
			panicf(t, "rank %d: control sum %d, want 10", r.ID, got)
		}
		words := []uint64{1 << uint(r.ID)}
		agg := ControlOrWords(r.World, words)
		if agg[0] != 0b1111 {
			panicf(t, "rank %d: control OR %b, want 1111", r.ID, agg[0])
		}
	})
}

func TestControlOrWordsFoldsAllRanks(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 3}
	w, err := NewWorld(mesh.Size(), mesh, topology.NewSunway(mesh.Size()))
	if err != nil {
		t.Fatal(err)
	}
	w.Run(func(r *Rank) {
		words := []uint64{uint64(r.ID), 1 << uint(16+r.ID)}
		agg := ControlOrWords(r.World, words)
		if agg[0] != 0|1|2|3|4|5 {
			panicf(t, "rank %d: word0 = %d", r.ID, agg[0])
		}
		if agg[1] != 0b111111<<16 {
			panicf(t, "rank %d: word1 = %b", r.ID, agg[1])
		}
	})
}

func TestNextEpochShrink(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 3}
	w, err := NewWorld(mesh.Size(), mesh, topology.NewSunway(mesh.Size()))
	if err != nil {
		t.Fatal(err)
	}
	nodes := w.Machine().Nodes
	nw, err := w.NextEpoch([]int{4}, RebuildShrink)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Epoch() != w.Epoch()+1 {
		t.Fatalf("epoch %d, want %d", nw.Epoch(), w.Epoch()+1)
	}
	// Rank 4 sits at row 1, col 1; its nearest surviving row neighbor is
	// rank 5 (col 2). The dead slot is re-homed onto rank 5's node; the
	// machine does not grow.
	if got, want := nw.NodeOf(4), nw.NodeOf(5); got != want {
		t.Fatalf("shrink re-homed rank 4 to node %d, want rank 5's node %d", got, want)
	}
	if nw.Machine().Nodes != nodes {
		t.Fatalf("shrink grew the machine: %d nodes, was %d", nw.Machine().Nodes, nodes)
	}
	// Survivors keep their identity mapping.
	for r := 0; r < mesh.Size(); r++ {
		if r != 4 && nw.NodeOf(r) != w.NodeOf(r) {
			t.Fatalf("survivor rank %d moved from node %d to %d", r, w.NodeOf(r), nw.NodeOf(r))
		}
	}
}

func TestNextEpochShrinkWholeRowDead(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	w, err := NewWorld(mesh.Size(), mesh, topology.NewSunway(mesh.Size()))
	if err != nil {
		t.Fatal(err)
	}
	// Kill an entire mesh row: re-homing must fall back to a live rank
	// outside the row instead of pointing a dead slot at another dead slot.
	nw, err := w.NextEpoch([]int{2, 3}, RebuildShrink)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []int{2, 3} {
		host := nw.NodeOf(d)
		if host != nw.NodeOf(0) && host != nw.NodeOf(1) {
			t.Fatalf("dead rank %d re-homed to node %d, not a survivor's node", d, host)
		}
	}
}

func TestNextEpochRestore(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	w, err := NewWorld(mesh.Size(), mesh, topology.NewSunway(mesh.Size()))
	if err != nil {
		t.Fatal(err)
	}
	nodes := w.Machine().Nodes
	nw, err := w.NextEpoch([]int{1}, RebuildRestore)
	if err != nil {
		t.Fatal(err)
	}
	if nw.Machine().Nodes != nodes+1 {
		t.Fatalf("restore grew machine to %d nodes, want %d", nw.Machine().Nodes, nodes+1)
	}
	if nw.NodeOf(1) != nodes {
		t.Fatalf("replacement rank 1 on node %d, want fresh node %d", nw.NodeOf(1), nodes)
	}
	// The restored world is a working world: run a collective on it.
	nw.Run(func(r *Rank) {
		if got := ControlSumInt64(r.World, 1); got != int64(mesh.Size()) {
			panicf(t, "rank %d: sum %d", r.ID, got)
		}
	})
}

func TestNextEpochValidation(t *testing.T) {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	w, err := NewWorld(mesh.Size(), mesh, topology.NewSunway(mesh.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.NextEpoch(nil, RebuildShrink); err == nil {
		t.Fatal("empty dead list accepted")
	}
	if _, err := w.NextEpoch([]int{7}, RebuildShrink); err == nil {
		t.Fatal("out-of-range rank accepted")
	}
	if _, err := w.NextEpoch([]int{0, 1, 2, 3}, RebuildShrink); err == nil {
		t.Fatal("all-dead world accepted")
	}
}
