package comm

import (
	"fmt"
	"hash/crc32"
	"slices"
	"unsafe"
)

// elemSize returns the in-memory size of T for traffic accounting.
func elemSize[T any]() int64 {
	var z T
	return int64(unsafe.Sizeof(z))
}

// sumSlice folds a slice's raw bytes into the envelope checksum: CRC-32C
// (hash/crc32's hardware path), chained across a contribution's parts from a
// zero seed. The element types exchanged by the collectives are plain data
// (integers, floats, small structs), so the byte view is well defined; on the
// socket backend the wire ships exactly these bytes, so a receiver summing
// the raw frame payload computes the same sum the sender declared.
func sumSlice[T any](h uint64, s []T) uint64 {
	return uint64(crc32.Update(uint32(h), castagnoli, sliceBytes(s)))
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sumParts is the envelope checksum of a contribution's parts.
func sumParts(parts [][]byte) uint64 {
	var h uint64
	for _, p := range parts {
		h = sumSlice(h, p)
	}
	return h
}

// sliceBytes returns the native-endian byte view of s (nil for empty or
// zero-sized elements). The view aliases s; the wire layer copies at
// enqueue, so the alias never outlives the collective call.
func sliceBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	es := int(unsafe.Sizeof(s[0]))
	if es == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*es)
}

// slot reads part i of member j's posted contribution as a []T, nil when
// nothing was posted (withheld, dead, or synthesized-dead slots). A local
// member's part is the byte view of its own buffer and a remote member's a
// range of the received frame; either is read in place when it sits at T's
// alignment (a single-part frame payload starts 72 bytes into an 8-aligned
// buffer, so it does) and copied into a fresh slice otherwise. An in-place
// view is shared by every local member that reads the slot and aliases the
// sender's buffer or frame, so collectives copy out what they return.
func slot[T any](c *Comm, j, i int) []T {
	parts := c.sh.slots[j].parts
	if i >= len(parts) || len(parts[i]) == 0 {
		return nil
	}
	b := parts[i]
	var z T
	n := len(b) / int(unsafe.Sizeof(z))
	if p := unsafe.Pointer(&b[0]); uintptr(p)%unsafe.Alignof(z) == 0 {
		return unsafe.Slice((*T)(p), n)
	}
	out := make([]T, n)
	copy(sliceBytes(out), b)
	return out
}

// collective is the data-plane protocol every public collective runs, over a
// contribution of raw parts (nil for the barrier, which posts no payload).
// It takes the collective's sequence number, opens its trace span, counts
// the call and accounts bytesTo(j) bytes to every other member j; consults
// the transport (sleeping any injected delay); checksums the parts and, on a
// Corrupt verdict, posts a copy with one bit flipped in its first non-empty
// part (the caller's buffers are never touched, so a retry resends clean
// data); posts the envelope and ships it to the remote processes;
// rendezvouses and verifies. read runs only when every member agreed the
// envelopes clean, and before the closing barrier, so no sender can race
// ahead and mutate a buffer a receiver is still reading.
func (c *Comm) collective(kind Kind, name string, parts [][]byte, bytesTo func(j int) int64, read func()) error {
	seq := c.nextSeq()
	tok := c.traceEnter()
	c.rank.Stats.Calls[kind]++
	for j := range c.Size() {
		if j != c.me && bytesTo != nil {
			c.account(kind, j, bytesTo(j))
		}
	}
	act := c.rank.intercept(kind, c.Size())
	ctr := contribution{delay: act.Delay, withheld: act.Withhold, failed: act.Fail, dead: act.Kill}
	if !ctr.failed && !ctr.withheld && !ctr.dead {
		if c.rank.Faulty() && parts != nil {
			ctr.declared = sumParts(parts)
			ctr.posted = ctr.declared
			c.rank.sums++
			if i := slices.IndexFunc(parts, func(p []byte) bool { return len(p) > 0 }); act.Corrupt && i >= 0 {
				parts = slices.Clone(parts)
				parts[i] = slices.Clone(parts[i])
				parts[i][0] ^= 1
				ctr.posted = sumParts(parts)
				c.rank.sums++
				c.rank.Faults.Corruptions++
			}
		}
		ctr.parts = parts
	}
	c.sh.slots[c.me] = ctr
	c.distSend(seq, wireData, &ctr)
	c.rendezvous(seq)
	err := c.verify(kind)
	if err == nil && read != nil {
		read()
	}
	c.complete(seq)
	c.traceExit(name, tok, err)
	return err
}

// gather is collective for a one-buffer contribution sent whole to every
// other member: each(j, s) reads member j's buffer for every member.
func gather[T any](c *Comm, kind Kind, name string, send []T, each func(j int, s []T)) error {
	n := int64(len(send)) * elemSize[T]()
	return c.collective(kind, name, [][]byte{sliceBytes(send)}, func(int) int64 { return n }, func() {
		for j := range c.Size() {
			each(j, slot[T](c, j, 0))
		}
	})
}

// Alltoallv exchanges per-destination buffers: send[j] goes to member j.
// It returns recv where recv[j] is the buffer member j sent to the caller.
// As in MPI, the returned data is the caller's copy: it stays valid even if
// senders immediately reuse or mutate their buffers. The copy happens before
// the closing barrier, so no sender can race ahead and mutate a buffer a
// receiver is still reading. On a typed fault error the result is nil and no
// received data is exposed.
func Alltoallv[T any](c *Comm, send [][]T) ([][]T, error) {
	k := c.Size()
	if len(send) != k {
		panic("comm: Alltoallv needs one buffer per member")
	}
	parts := make([][]byte, k)
	for j, buf := range send {
		parts[j] = sliceBytes(buf)
	}
	es := elemSize[T]()
	var recv [][]T
	err := c.collective(KindAlltoallv, "alltoallv", parts, func(j int) int64 { return int64(len(send[j])) * es }, func() {
		recv = make([][]T, k)
		for j := range recv {
			if mine := slot[T](c, j, c.me); len(mine) > 0 {
				recv[j] = slices.Clone(mine)
			}
		}
	})
	return recv, err
}

// Allgatherv gathers each member's buffer on every member; result[i] is a
// copy of member i's buffer. The copies happen before the closing barrier so
// a sender mutating its buffer right after the call cannot corrupt any
// receiver's view (MPI value semantics).
func Allgatherv[T any](c *Comm, send []T) ([][]T, error) {
	out := make([][]T, c.Size())
	err := gather(c, KindAllgather, "allgatherv", send, func(j int, s []T) {
		if len(s) > 0 {
			out[j] = slices.Clone(s)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AllgathervUniform gathers equal-length contributions into a preallocated
// member-major destination: member j's buffer lands in
// dst[j*len(send) : (j+1)*len(send)]. All members must pass buffers of one
// agreed length; a contribution of a different length (a protocol bug, not a
// transport fault — corruption is caught by the envelope checksum first)
// panics. The batched multi-source engine uses this for its stacked
// bit-plane frontier gathers: the destination is the contiguous backing of Q
// per-query window views, so the gather lands each member's planes in place
// with no per-call allocation and one collective regardless of batch width.
// On a typed fault error dst is left untouched, so a step-granular retry
// resends against clean state.
func AllgathervUniform[T any](c *Comm, send []T, dst []T) error {
	n := len(send)
	if len(dst) != c.Size()*n {
		panic("comm: AllgathervUniform dst length must be Size()*len(send)")
	}
	return gather(c, KindAllgather, "allgatherv_uniform", send, func(j int, s []T) {
		if len(s) != n {
			panic("comm: AllgathervUniform contribution length mismatch")
		}
		copy(dst[j*n:(j+1)*n], s)
	})
}

// segBounds returns member i's block of an n-element vector split k ways.
func segBounds(n, k, i int) (int, int) {
	base := n / k
	rem := n % k
	lo := i*base + min(i, rem)
	size := base
	if i < rem {
		size++
	}
	return lo, lo + size
}

// reduce folds the members' vals[lo:hi] in member order — member 0's copy
// seeds the result and fold(acc, x) adds each later member's x — and returns
// the result, sending each other member j bytesTo(j) bytes. The order is the
// same on every member, so a float sum is one sequential sum, bit for bit,
// everywhere.
func reduce[T any](c *Comm, name string, vals []T, lo, hi int, bytesTo func(j int) int64, fold func(acc, x []T)) ([]T, error) {
	var acc []T
	err := c.collective(KindReduceScatter, name, [][]byte{sliceBytes(vals)}, bytesTo, func() {
		acc = slices.Clone(slot[T](c, 0, 0)[lo:hi])
		for j := 1; j < c.Size(); j++ {
			fold(acc, slot[T](c, j, 0)[lo:hi])
		}
	})
	return acc, err
}

// reduceScatter is reduce over the caller's block of vals (segBounds'
// decomposition; all members pass equal-length vectors). Traffic accounting
// follows the pairwise-exchange algorithm: each member sends every other
// member that member's block.
func reduceScatter[T any](c *Comm, name string, vals []T, fold func(acc, x []T)) ([]T, error) {
	n, k := len(vals), c.Size()
	lo, hi := segBounds(n, k, c.me)
	es := elemSize[T]()
	return reduce(c, name, vals, lo, hi, func(j int) int64 {
		jlo, jhi := segBounds(n, k, j)
		return int64(jhi-jlo) * es
	}, fold)
}

// allgatherSegments reassembles a vector whose segment j lives on member j
// (the layout reduceScatter leaves) into the full-length dst on every
// member. On error dst is left untouched.
func allgatherSegments[T any](c *Comm, seg, dst []T) error {
	k := c.Size()
	return gather(c, KindAllgather, "allgatherv", seg, func(j int, s []T) {
		lo, hi := segBounds(len(dst), k, j)
		if hi-lo != len(s) {
			panic("comm: segment length mismatch in AllgathervSegments")
		}
		copy(dst[lo:hi], s)
	})
}

// allreduce folds the members' vectors in place on every member as
// reduceScatter followed by allgatherSegments — the standard large-vector
// algorithm and the decomposition the paper's Figure 11 accounts separately.
// The halves are sibling spans: the reduce-scatter under name, the allgather
// as "allgatherv". Both halves always run so the collective schedule stays
// identical on every member even when the first fails (the allgather then
// posts an empty segment and its result is discarded); on error vals is left
// untouched, which makes retrying an idempotent reduction safe.
func allreduce[T any](c *Comm, name string, vals []T, fold func(acc, x []T)) error {
	seg, err := reduceScatter(c, name, vals, fold)
	if err != nil {
		_, _ = Allgatherv(c, []T(nil)) // schedule only: its result and error are discarded
		return err
	}
	return allgatherSegments(c, seg, vals)
}

func foldOr(acc, x []uint64) {
	for i := range acc {
		acc[i] |= x[i]
	}
}

func foldSum[T int64 | float64](acc, x []T) {
	for i := range acc {
		acc[i] += x[i]
	}
}

// ReduceScatterOr ORs all members' full-length word vectors and returns the
// caller's segment of the result. Segments are the standard block
// decomposition: member i owns words [i*len/k, (i+1)*len/k). All members must
// pass equal-length slices.
func ReduceScatterOr(c *Comm, words []uint64) ([]uint64, error) {
	return reduceScatter(c, "reduce_scatter_or", words, foldOr)
}

// AllgathervSegments reassembles a vector whose segment i lives on member i
// (the inverse layout of ReduceScatterOr) into the full-length dst on every
// member. On error dst is left untouched.
func AllgathervSegments(c *Comm, seg []uint64, dst []uint64) error {
	return allgatherSegments(c, seg, dst)
}

// AllreduceOr ORs the members' word vectors in place on every member
// (ReduceScatterOr, then AllgathervSegments).
func AllreduceOr(c *Comm, words []uint64) error {
	return allreduce(c, "reduce_scatter_or", words, foldOr)
}

// AllreduceMaxInt64 computes the element-wise maximum across members in
// place. Used by the delayed reduction of the delegated parent array, where
// valid parents (≥ 0) win over the -1 sentinel. On error vals is untouched,
// which makes retrying the (idempotent, monotone) reduction safe.
func AllreduceMaxInt64(c *Comm, vals []int64) error {
	return allreduce(c, "allreduce_max", vals, func(acc, x []int64) {
		for i := range acc {
			acc[i] = max(acc[i], x[i])
		}
	})
}

// AllreduceSumFloat64 sums the members' float64 vectors element-wise in
// place on every member. Summation order is member order, so every member
// computes bit-identical results — the property PageRank's hub sum relies on
// to keep replicated hub values consistent without re-broadcasting.
// On error vals is left untouched.
func AllreduceSumFloat64(c *Comm, vals []float64) error {
	return allreduce(c, "allreduce_sum_f64", vals, foldSum[float64])
}

// AllreduceSumInt64 sums scalar contributions across members and returns the
// total on every member.
func AllreduceSumInt64(c *Comm, v int64) (int64, error) {
	sums, err := AllreduceSumInt64s(c, []int64{v})
	if err != nil {
		return 0, err
	}
	return sums[0], nil
}

// AllreduceSumInt64s sums the members' equal-length int64 vectors element-wise
// and returns the totals on every member. It is one rendezvous — every
// member posts its whole vector and sums all contributions — the right shape
// for control-sized vectors where a reduce-scatter + allgather pair would
// double the collective count. The engine's epilogue rides it to agree on
// the active-L count and the iteration's observed bytes in a single
// collective, keeping the epilogue's schedule position identical whether or
// not the byte feedback is consumed.
func AllreduceSumInt64s(c *Comm, vals []int64) ([]int64, error) {
	n := 8 * int64(len(vals))
	return reduce(c, "allreduce_sum", vals, 0, len(vals), func(int) int64 { return n }, foldSum[int64])
}

// AllgatherSparse is the tail-iteration exchange: every member posts one
// encoded frame of destination-addressed updates and every member receives
// all frames, keeping only the records addressed to it. The result is shaped
// exactly like Alltoallv's — out[j] holds member j's updates for the caller,
// in j's send order — so a caller can substitute it for a dense exchange and
// apply the received messages in an identical order. For the tiny frontiers
// of tail iterations one small allgathered frame replaces k dense buffers,
// most of them empty.
//
// The frame rides the same contribution protocol as every other collective,
// so the fault transport's delay/stall/corrupt/fail/kill actions all apply;
// corruption is caught by the envelope checksum before any decode, which is
// why a frame that fails to decode after a clean verify is a panic (protocol
// bug), not an error. Updates with Dst outside [0, Size()) panic on the
// sender — they could otherwise silently vanish.
func AllgatherSparse(c *Comm, ups []SparseUpdate) ([][]SparseUpdate, error) {
	k := c.Size()
	for _, u := range ups {
		if int(u.Dst) < 0 || int(u.Dst) >= k {
			panic(fmt.Sprintf("comm: AllgatherSparse update Dst %d out of [0,%d)", u.Dst, k))
		}
	}
	out := make([][]SparseUpdate, k)
	err := gather(c, KindAllgatherSparse, "allgather_sparse", EncodeSparseUpdates(nil, ups), func(j int, frame []byte) {
		posted, derr := DecodeSparseUpdates(frame)
		if derr != nil {
			panic(fmt.Sprintf("comm: AllgatherSparse: member %d posted a bad frame past checksum verification: %v", j, derr))
		}
		for _, u := range posted {
			if int(u.Dst) == c.me {
				out[j] = append(out[j], u)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// controlGather is the control-plane protocol: every member posts send and
// each(j, s) reads member j's slice for every member before the closing
// barrier; a dead process's members read nil. Control collectives are never
// intercepted by the fault transport and cannot fail — even a dead rank still
// posts, which is exactly what the membership protocol needs (the zombie's
// goroutine doubles as its failure detector and contributes its own death
// bit) — and, like real systems' agreement on a reliable out-of-band channel,
// they are exempt from traffic accounting and tracing.
func controlGather[T any](c *Comm, send []T, each func(j int, s []T)) {
	seq := c.nextSeq()
	ctr := contribution{parts: [][]byte{sliceBytes(send)}}
	c.sh.slots[c.me] = ctr
	c.distSend(seq, wireControl, &ctr)
	c.rendezvous(seq)
	for j := range c.Size() {
		each(j, slot[T](c, j, 0))
	}
	c.complete(seq)
}

// ControlSumInt64 sums scalar contributions like AllreduceSumInt64 but rides
// the control plane. The resilient engine uses it to vote on whether any
// rank saw a collective error in an iteration. On the socket backend a dead
// process's contribution counts as zero.
func ControlSumInt64(c *Comm, v int64) int64 {
	var sum int64
	controlGather(c, []int64{v}, func(_ int, s []int64) {
		if len(s) > 0 {
			sum += s[0]
		}
	})
	return sum
}

// ControlOrWords ORs the members' fixed-length word vectors on the control
// plane. All members must pass equal-length vectors. The engine's
// per-iteration vote rides this: word 0 carries the step-failure mask, the
// rest a dead-rank bitmask. On the socket backend a dead PROCESS has no
// zombie to vote; the comm layer synthesizes the vote its ranks would have
// cast, setting their dead-rank bits.
func ControlOrWords(c *Comm, words []uint64) []uint64 {
	out := make([]uint64, len(words))
	controlGather(c, words, func(j int, s []uint64) {
		if s == nil {
			markDeadRank(out, c.sh.members[j])
		} else {
			foldOr(out, s)
		}
	})
	return out
}

// markDeadRank sets rank r's bit in the membership vote's dead-rank mask
// (words[1+r/64], bit r%64 — the layout documented on ControlOrWords).
func markDeadRank(words []uint64, r int) {
	w := 1 + r/64
	if w < len(words) {
		words[w] |= 1 << uint(r%64)
	}
}

// ControlGatherSlices gathers every member's slice on every member over the
// control plane. The distributed engine's result assembly rides it — after
// a run succeeds each process holds only its local ranks' owned segments of
// the global result arrays, and one control gather ships the rest without
// re-opening the data-plane schedule to injected faults. out[j] is member
// j's slice; a dead process's members contribute nil. Nothing is copied: a
// local member's slice aliases the sender's buffer and a remote member's the
// received frame, which every local caller shares; callers must copy before
// mutating.
func ControlGatherSlices[T any](c *Comm, send []T) [][]T {
	out := make([][]T, c.Size())
	controlGather(c, send, func(j int, s []T) { out[j] = s })
	return out
}
