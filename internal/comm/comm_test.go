package comm

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/topology"
)

func testWorld(t *testing.T, n int, mesh topology.Mesh) *World {
	t.Helper()
	w, err := NewWorld(n, mesh, topology.NewSunway(n))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestRunSpawnsAllRanks(t *testing.T) {
	w := testWorld(t, 8, topology.Mesh{Rows: 2, Cols: 4})
	var seen [8]atomic.Bool
	w.Run(func(r *Rank) { seen[r.ID].Store(true) })
	for i := range seen {
		if !seen[i].Load() {
			t.Fatalf("rank %d did not run", i)
		}
	}
}

func TestMeshCoordinates(t *testing.T) {
	w := testWorld(t, 6, topology.Mesh{Rows: 2, Cols: 3})
	w.Run(func(r *Rank) {
		if r.Row != r.ID/3 || r.Col != r.ID%3 {
			panic(fmt.Sprintf("rank %d at (%d,%d)", r.ID, r.Row, r.Col))
		}
		if r.RowC.Size() != 3 || r.ColC.Size() != 2 {
			panic("wrong sub-communicator sizes")
		}
		if r.RowC.Rank() != r.Col || r.ColC.Rank() != r.Row {
			panic("wrong member indices")
		}
	})
}

func TestAlltoallv(t *testing.T) {
	const n = 6
	w := testWorld(t, n, topology.Mesh{Rows: 2, Cols: 3})
	w.Run(func(r *Rank) {
		send := make([][]int64, n)
		for j := 0; j < n; j++ {
			// Rank i sends j copies of value i*100+j to rank j.
			for k := 0; k < j; k++ {
				send[j] = append(send[j], int64(r.ID*100+j))
			}
		}
		recv := Must(Alltoallv(r.World, send))
		for j := 0; j < n; j++ {
			if len(recv[j]) != r.ID {
				panic(fmt.Sprintf("rank %d: got %d items from %d, want %d", r.ID, len(recv[j]), j, r.ID))
			}
			for _, v := range recv[j] {
				if v != int64(j*100+r.ID) {
					panic(fmt.Sprintf("rank %d: bad value %d from %d", r.ID, v, j))
				}
			}
		}
	})
}

func TestAlltoallvConservesBytes(t *testing.T) {
	const n = 4
	w := testWorld(t, n, topology.Mesh{Rows: 2, Cols: 2})
	sent := make([]int64, n)
	w.Run(func(r *Rank) {
		send := make([][]uint64, n)
		for j := 0; j < n; j++ {
			send[j] = make([]uint64, (r.ID+1)*(j+1))
		}
		Must(Alltoallv(r.World, send))
		st := r.Stats
		sent[r.ID] = st.IntraBytes[KindAlltoallv] + st.InterBytes[KindAlltoallv]
	})
	var total int64
	for i, s := range sent {
		want := int64(0)
		for j := 0; j < n; j++ {
			if j != i {
				want += int64((i + 1) * (j + 1) * 8)
			}
		}
		if s != want {
			t.Fatalf("rank %d accounted %d bytes, want %d", i, s, want)
		}
		total += s
	}
	if total == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestAllgatherv(t *testing.T) {
	const n = 5
	w := testWorld(t, n, topology.Mesh{Rows: 1, Cols: 5})
	w.Run(func(r *Rank) {
		mine := []int32{int32(r.ID), int32(r.ID * 2)}
		all := Must(Allgatherv(r.World, mine))
		for j := 0; j < n; j++ {
			if len(all[j]) != 2 || all[j][0] != int32(j) || all[j][1] != int32(j*2) {
				panic(fmt.Sprintf("rank %d: bad gather from %d: %v", r.ID, j, all[j]))
			}
		}
	})
}

func TestAllgathervUniform(t *testing.T) {
	const n = 5
	w := testWorld(t, n, topology.Mesh{Rows: 1, Cols: 5})
	w.Run(func(r *Rank) {
		mine := []uint64{uint64(r.ID), uint64(r.ID * 10)}
		dst := make([]uint64, n*len(mine))
		for i := range dst {
			dst[i] = ^uint64(0) // must be fully overwritten
		}
		Must0(AllgathervUniform(r.World, mine, dst))
		for j := 0; j < n; j++ {
			if dst[2*j] != uint64(j) || dst[2*j+1] != uint64(j*10) {
				panic(fmt.Sprintf("rank %d: bad member-major slot %d: %v", r.ID, j, dst[2*j:2*j+2]))
			}
		}
	})
}

func TestAllgathervUniformBadDstPanics(t *testing.T) {
	w := testWorld(t, 2, topology.Mesh{Rows: 1, Cols: 2})
	w.Run(func(r *Rank) {
		defer func() {
			if recover() == nil {
				panic("expected panic on short dst")
			}
		}()
		_ = AllgathervUniform(r.World, []uint64{1, 2}, make([]uint64, 3))
	})
}

func TestReduceScatterAndAllgatherSegments(t *testing.T) {
	const n = 4
	w := testWorld(t, n, topology.Mesh{Rows: 2, Cols: 2})
	w.Run(func(r *Rank) {
		words := make([]uint64, 10)
		words[r.ID] = 1 << uint(r.ID) // each rank sets a distinct word
		words[9] = uint64(1) << uint(16+r.ID)
		seg := Must(ReduceScatterOr(r.World, words))
		full := make([]uint64, 10)
		Must0(AllgathervSegments(r.World, seg, full))
		for i := 0; i < n; i++ {
			if full[i] != 1<<uint(i) {
				panic(fmt.Sprintf("full[%d] = %x", i, full[i]))
			}
		}
		if full[9] != 0xF0000 {
			panic(fmt.Sprintf("full[9] = %x, want f0000", full[9]))
		}
	})
}

func TestAllreduceOr(t *testing.T) {
	const n = 7
	w := testWorld(t, n, topology.Mesh{Rows: 7, Cols: 1})
	w.Run(func(r *Rank) {
		words := make([]uint64, 3)
		words[r.ID%3] = 1 << uint(r.ID)
		Must0(AllreduceOr(r.World, words))
		want := [3]uint64{}
		for j := 0; j < n; j++ {
			want[j%3] |= 1 << uint(j)
		}
		for i := range words {
			if words[i] != want[i] {
				panic(fmt.Sprintf("rank %d: words[%d] = %x, want %x", r.ID, i, words[i], want[i]))
			}
		}
	})
}

func TestAllreduceOrDecomposesIntoRSAndAG(t *testing.T) {
	w := testWorld(t, 4, topology.Mesh{Rows: 2, Cols: 2})
	var rs, ag int64
	w.Run(func(r *Rank) {
		words := make([]uint64, 64)
		Must0(AllreduceOr(r.World, words))
		if r.ID == 0 {
			rs = r.Stats.Calls[KindReduceScatter]
			ag = r.Stats.Calls[KindAllgather]
		}
	})
	if rs != 1 || ag != 1 {
		t.Fatalf("AllreduceOr recorded rs=%d ag=%d calls, want 1 and 1", rs, ag)
	}
}

func TestAllreduceMaxInt64(t *testing.T) {
	const n = 5
	w := testWorld(t, n, topology.Mesh{Rows: 1, Cols: 5})
	w.Run(func(r *Rank) {
		vals := []int64{-1, -1, -1, -1, -1, -1, -1}
		vals[r.ID] = int64(r.ID * 10)
		if r.ID == 2 {
			vals[6] = 99
		}
		Must0(AllreduceMaxInt64(r.World, vals))
		for j := 0; j < n; j++ {
			if vals[j] != int64(j*10) {
				panic(fmt.Sprintf("vals[%d] = %d", j, vals[j]))
			}
		}
		if vals[5] != -1 || vals[6] != 99 {
			panic(fmt.Sprintf("tail wrong: %v", vals[5:]))
		}
	})
}

func TestAllreduceSumInt64(t *testing.T) {
	const n = 6
	w := testWorld(t, n, topology.Mesh{Rows: 2, Cols: 3})
	w.Run(func(r *Rank) {
		got := Must(AllreduceSumInt64(r.World, int64(r.ID+1)))
		if got != 21 {
			panic(fmt.Sprintf("sum = %d, want 21", got))
		}
	})
}

func TestRowColCollectivesIndependent(t *testing.T) {
	// Row sums and column sums over a 2x3 mesh with value = rank id.
	w := testWorld(t, 6, topology.Mesh{Rows: 2, Cols: 3})
	w.Run(func(r *Rank) {
		rowSum := Must(AllreduceSumInt64(r.RowC, int64(r.ID)))
		colSum := Must(AllreduceSumInt64(r.ColC, int64(r.ID)))
		wantRow := int64(0)
		for c := 0; c < 3; c++ {
			wantRow += int64(r.Row*3 + c)
		}
		wantCol := int64(0)
		for row := 0; row < 2; row++ {
			wantCol += int64(row*3 + r.Col)
		}
		if rowSum != wantRow || colSum != wantCol {
			panic(fmt.Sprintf("rank %d: rowSum=%d want %d, colSum=%d want %d", r.ID, rowSum, wantRow, colSum, wantCol))
		}
	})
}

func TestIntraInterSupernodeSplit(t *testing.T) {
	// Machine with 2-node supernodes: ranks {0,1} and {2,3}. An allgather on
	// WORLD from rank 0 sends to 1 (intra) and 2,3 (inter).
	mach := topology.Machine{Nodes: 4, SupernodeSize: 2, NICBandwidth: 1e9, Oversubscription: 4}
	w, err := NewWorld(4, topology.Mesh{Rows: 2, Cols: 2}, mach)
	if err != nil {
		t.Fatal(err)
	}
	var intra, inter int64
	w.Run(func(r *Rank) {
		buf := make([]uint64, 10) // 80 bytes
		Must(Allgatherv(r.World, buf))
		if r.ID == 0 {
			intra = r.Stats.IntraBytes[KindAllgather]
			inter = r.Stats.InterBytes[KindAllgather]
		}
	})
	if intra != 80 || inter != 160 {
		t.Fatalf("intra=%d inter=%d, want 80 and 160", intra, inter)
	}
}

func TestWorldRejectsBadMesh(t *testing.T) {
	if _, err := NewWorld(6, topology.Mesh{Rows: 2, Cols: 2}, topology.NewSunway(6)); err == nil {
		t.Fatal("expected mesh size error")
	}
	if _, err := NewWorld(8, topology.Mesh{Rows: 2, Cols: 4}, topology.NewSunway(4)); err == nil {
		t.Fatal("expected machine too small error")
	}
}

func TestBarrierOrdering(t *testing.T) {
	// All ranks increment before the barrier; after it everyone must see the
	// full count.
	w := testWorld(t, 8, topology.Mesh{Rows: 2, Cols: 4})
	var counter atomic.Int64
	w.Run(func(r *Rank) {
		counter.Add(1)
		Must0(r.World.Barrier())
		if counter.Load() != 8 {
			panic("barrier did not synchronize")
		}
	})
}

func TestStatsDelta(t *testing.T) {
	w := testWorld(t, 2, topology.Mesh{Rows: 1, Cols: 2})
	w.Run(func(r *Rank) {
		base := r.Stats
		Must(Allgatherv(r.World, make([]uint64, 4)))
		d := r.Stats.Delta(&base)
		if d.Calls[KindAllgather] != 1 {
			panic("delta calls wrong")
		}
		if d.TotalBytes() != 32 {
			panic(fmt.Sprintf("delta bytes %d, want 32", d.TotalBytes()))
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	w := testWorld(t, 2, topology.Mesh{Rows: 1, Cols: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Run should propagate rank panics")
		}
	}()
	w.Run(func(r *Rank) {
		if r.ID == 1 {
			panic("boom")
		}
	})
}

func BenchmarkAlltoallv16Ranks(b *testing.B) {
	w, err := NewWorld(16, topology.Mesh{Rows: 4, Cols: 4}, topology.NewSunway(16))
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]uint64, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Run(func(r *Rank) {
			send := make([][]uint64, 16)
			for j := range send {
				send[j] = payload
			}
			Must(Alltoallv(r.World, send))
		})
	}
}

func TestAllreduceSumFloat64(t *testing.T) {
	const n = 6
	w := testWorld(t, n, topology.Mesh{Rows: 2, Cols: 3})
	results := make([][]float64, n)
	w.Run(func(r *Rank) {
		vals := []float64{float64(r.ID), 1, 0.5}
		Must0(AllreduceSumFloat64(r.World, vals))
		results[r.ID] = vals
	})
	want := []float64{15, 6, 3}
	for id, vals := range results {
		for i := range want {
			if vals[i] != want[i] {
				t.Fatalf("rank %d: vals[%d] = %g, want %g", id, i, vals[i], want[i])
			}
		}
		// Bit-identical across ranks (deterministic order).
		for i := range vals {
			if vals[i] != results[0][i] {
				t.Fatalf("rank %d diverges from rank 0", id)
			}
		}
	}
}

func TestRandomizedCollectiveSequence(t *testing.T) {
	// A long random (but rank-uniform) sequence of mixed collectives over
	// world/row/column communicators: exercises barrier generation reuse,
	// slot recycling, and cross-communicator interleaving. Results are
	// checked against sequentially computed expectations.
	const n = 6
	mesh := topology.Mesh{Rows: 2, Cols: 3}
	w := testWorld(t, n, mesh)
	// The operation schedule must be identical on every rank: derive it
	// deterministically before spawning.
	type op struct{ kind, commSel, size int }
	ops := make([]op, 120)
	seed := uint64(12345)
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33) % mod
	}
	for i := range ops {
		ops[i] = op{kind: next(4), commSel: next(3), size: 1 + next(50)}
	}
	w.Run(func(r *Rank) {
		pick := func(sel int) *Comm {
			switch sel {
			case 0:
				return r.World
			case 1:
				return r.RowC
			default:
				return r.ColC
			}
		}
		for i, o := range ops {
			c := pick(o.commSel)
			switch o.kind {
			case 0: // allreduce OR of rank-tagged words
				words := make([]uint64, o.size)
				words[o.size/2] = 1 << uint(r.ID)
				Must0(AllreduceOr(c, words))
				var want uint64
				for m := 0; m < c.Size(); m++ {
					want |= 1 << uint(c.WorldRank(m))
				}
				if words[o.size/2] != want {
					panic(fmt.Sprintf("op %d: OR got %x want %x", i, words[o.size/2], want))
				}
			case 1: // sum
				got := Must(AllreduceSumInt64(c, int64(r.ID+1)))
				want := int64(0)
				for m := 0; m < c.Size(); m++ {
					want += int64(c.WorldRank(m) + 1)
				}
				if got != want {
					panic(fmt.Sprintf("op %d: sum got %d want %d", i, got, want))
				}
			case 2: // alltoallv echo: member j receives i's rank from i
				send := make([][]int32, c.Size())
				for j := range send {
					send[j] = []int32{int32(r.ID)}
				}
				recv := Must(Alltoallv(c, send))
				for j := range recv {
					if len(recv[j]) != 1 || recv[j][0] != int32(c.WorldRank(j)) {
						panic(fmt.Sprintf("op %d: alltoallv echo wrong", i))
					}
				}
			default: // barrier
				Must0(c.Barrier())
			}
		}
	})
}
