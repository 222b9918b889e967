package core

import (
	"testing"
	"time"
)

// TestBootstrapNeedsNoCollective seeds a batch on one rank handle outside
// World.Run, where a collective would wait forever for the other ranks: the
// global L counts of an L root (1 active, 1 visited) and of a hub root (none)
// are known to every rank without one.
func TestBootstrapNeedsNoCollective(t *testing.T) {
	e := scanGraph(t, DefaultThresholds(10))
	if e.Part.Hubs.K() == 0 {
		t.Fatal("the graph has no hub to root at")
	}
	hubRoot := e.Part.Hubs.Orig[0]
	lRoot := int64(-1)
	for v, d := range e.Part.Degrees {
		if _, hub := e.Part.Hubs.HubOf(int64(v)); !hub && d > 0 {
			lRoot = int64(v)
			break
		}
	}
	r := rankHandles(e)[1]
	m := newMultiState(e, r, fullTrees(lRoot, hubRoot))
	done := make(chan error, 1)
	go func() { done <- m.bootstrap() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bootstrap blocked outside World.Run: it waits on a collective")
	}
	for q, want := range []int64{1, 0} {
		p := m.planes[q]
		if *p.activeL != want || *p.visitL != want {
			t.Errorf("root %d: activeL/visitL = %d/%d, want %d/%d", p.root, *p.activeL, *p.visitL, want, want)
		}
	}
}
