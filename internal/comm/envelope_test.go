package comm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/topology"
)

// envelopeWorlds builds a 2x2 world on one backend with a transport that
// corrupts the victim's first contribution: one in-process world, or two
// socket-connected ones. The victim's later contributions go out clean.
func envelopeWorlds(t testing.TB, socket bool, victim int) []*World {
	mesh := topology.Mesh{Rows: 2, Cols: 2}
	opt := func(int) WorldOptions {
		return WorldOptions{Transport: scripted(func(c Call) FaultAction {
			return FaultAction{Corrupt: c.Rank == victim && c.Seq == 1}
		})}
	}
	if socket {
		ws, _ := distWorlds(t, 2, mesh, opt)
		return ws
	}
	w, err := NewWorldOpts(mesh.Size(), mesh, topology.NewSunway(mesh.Size()), opt(0))
	if err != nil {
		t.Fatal(err)
	}
	return []*World{w}
}

// TestEnvelopeVerdictOnEveryMember: the declared-versus-posted comparison is
// two integers per slot, computed once per process — and it is still made by
// every member, for every collective kind, on both backends, whether the
// corrupt contribution was posted locally or decoded off the wire. Everyone
// blames the same rank; the same collective run clean right after is nil.
func TestEnvelopeVerdictOnEveryMember(t *testing.T) {
	for _, socket := range []bool{false, true} {
		for _, victim := range []int{0, 3} { // hosted by process 0 / process 1
			for _, op := range collectiveOps {
				if op.name == "barrier" {
					continue // no payload
				}
				t.Run(fmt.Sprintf("socket=%v/victim=%d/%s", socket, victim, op.name), func(t *testing.T) {
					runSPMD(envelopeWorlds(t, socket, victim), func(r *Rank) {
						err := op.run(r)
						var ce *CollectiveError
						if !errors.Is(err, ErrPayloadCorrupted) || !errors.As(err, &ce) || ce.Rank != victim {
							t.Errorf("rank %d: got %v, want ErrPayloadCorrupted naming rank %d", r.ID, err, victim)
						}
						if err := op.run(r); err != nil {
							t.Errorf("rank %d: clean rerun: %v", r.ID, err)
						}
					})
				})
			}
		}
	}
}

// TestEnvelopeSummedOncePerProcess counts checksum passes over one world
// allgather on two processes of two ranks: a poster sums its own buffer once
// (twice when the transport hands it a corrupt copy to post), and a process
// sums each remote contribution once, at decode — not once per member, which
// is what every member re-hashing every slot used to cost.
func TestEnvelopeSummedOncePerProcess(t *testing.T) {
	for _, victim := range []int{-1, 3} {
		ws := envelopeWorlds(t, true, victim)
		runSPMD(ws, func(r *Rank) {
			_, err := Allgatherv(r.World, make([]uint64, 512))
			if (err != nil) != (victim >= 0) {
				t.Errorf("victim %d rank %d: %v", victim, r.ID, err)
			}
			want := int64(1)
			if r.ID == victim {
				want = 2
			}
			if r.sums != want {
				t.Errorf("victim %d rank %d: summed its own contribution %d times, want %d", victim, r.ID, r.sums, want)
			}
		})
		for p, w := range ws {
			if sums := w.Group().sums.Load(); sums != 2 {
				t.Errorf("victim %d proc %d: %d passes over 2 remote contributions, want 2", victim, p, sums)
			}
		}
	}
}

// BenchmarkEnvelopeSum is the envelope checksum alone, in MB/s.
func BenchmarkEnvelopeSum(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			buf := make([]uint64, size/8)
			b.SetBytes(int64(size))
			var h uint64
			for i := 0; i < b.N; i++ {
				h = sumSlice(h, buf)
			}
			sinkSum = h
		})
	}
}

var sinkSum uint64

// BenchmarkDistCollective times one cross-process collective per iteration on
// two processes of two ranks over unix sockets; allocs/op and B/op cover all
// four ranks' calls, both routers and both directions of the wire. Each row
// posts size bytes per rank: alltoallv splits them evenly across the four
// destinations, the allreduces fold them element-wise.
func BenchmarkDistCollective(b *testing.B) {
	for _, size := range []int{64, 64 << 10} {
		for _, kind := range []string{"allgatherv", "allreduce_sum", "alltoallv", "allreduce_or", "allreduce_max"} {
			b.Run(fmt.Sprintf("%s/%dB", kind, size), func(b *testing.B) {
				ws, _ := distWorlds(b, 2, topology.Mesh{Rows: 2, Cols: 2}, nil)
				b.ReportAllocs()
				b.SetBytes(int64(size))
				b.ResetTimer()
				runSPMD(ws, func(r *Rank) {
					words, vals := make([]uint64, size/8), make([]int64, size/8)
					parts := make([][]uint64, r.World.Size())
					for j := range parts {
						parts[j] = words[j*len(words)/len(parts) : (j+1)*len(words)/len(parts)]
					}
					for i := 0; i < b.N; i++ {
						switch kind {
						case "allgatherv":
							Must(Allgatherv(r.World, words))
						case "allreduce_sum":
							Must(AllreduceSumInt64s(r.World, vals))
						case "alltoallv":
							Must(Alltoallv(r.World, parts))
						case "allreduce_or":
							Must0(AllreduceOr(r.World, words))
						case "allreduce_max":
							Must0(AllreduceMaxInt64(r.World, vals))
						}
					}
				})
			})
		}
	}
}
