package core

import (
	"testing"

	"repro/internal/bitmap"
	"repro/internal/comm"
	"repro/internal/perfmodel"
	"repro/internal/rmat"
	"repro/internal/topology"
)

// TestBatchQueryBytesPinned holds perfmodel.BatchQueryBytes, by which bfsd's
// -mem-budget sizes its batches, to the backings a batch holds per query per
// rank. Under ModePullOnly every plane pulls L2H and L2L, so each builds its
// row- and world-wide gathered frontiers and takes its share of the gather
// scratch on top of its bit-planes, parent arrays and counters.
func TestBatchQueryBytesPinned(t *testing.T) {
	cfg := rmat.Config{Scale: 10, Seed: 7}
	for _, mesh := range []topology.Mesh{{Rows: 2, Cols: 2}, {Rows: 2, Cols: 4}} {
		e, err := NewEngine(cfg.NumVertices(), rmat.Generate(cfg), Options{Mesh: mesh, Direction: ModePullOnly})
		if err != nil {
			t.Fatal(err)
		}
		var qs []Query
		for _, r := range distinctConnectedRoots(e, 4) {
			qs = append(qs, Query{Root: r, Target: -1})
		}
		rc, err := e.execute("sizing", nil,
			func(e *Engine, r *comm.Rank) *valueBase { return &newMultiState(e, r, qs).valueBase })
		if err == nil {
			err = rc.err
		}
		if err != nil {
			t.Fatal(err)
		}
		want := perfmodel.BatchQueryBytes(int64(e.Part.Hubs.K()), e.Part.Layout.PerRank, mesh, false)
		bytes := func(ws []uint64) int64 { return 8 * int64(cap(ws)) }
		hosted(rc, func(m *multiState) {
			held := 8*int64(cap(m.pHubAll)) + bytes(m.scr.sendWords) + bytes(m.scr.recvWords)
			for _, pl := range []*bitmap.Planes{m.hubF, m.hubV, m.hubN, m.hubI, m.lF, m.lV, m.lN} {
				held += bytes(pl.Words())
			}
			for _, p := range m.planes {
				if p.rowFrontier == nil || p.worldFrontier == nil {
					t.Fatalf("%v rank %d: plane %d never pulled L2H and L2L", mesh, m.r.ID, p.qid)
				}
				held += 8*int64(cap(p.parentL)) + bytes(p.rowFrontier.Words()) + bytes(p.worldFrontier.Words())
			}
			if got := held / int64(len(qs)); got != want || held%int64(len(qs)) != 0 {
				t.Errorf("%v rank %d: batch of %d holds %d bytes, %.1f per query; model says %d",
					mesh, m.r.ID, len(qs), held, float64(held)/float64(len(qs)), want)
			}
		})
	}
}
