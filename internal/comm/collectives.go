package comm

import (
	"hash/crc32"
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

// bytesToSlice reads received raw parts as a []T: in place when one part sits
// at T's alignment in its frame (a single-buffer payload starts 72 bytes into
// an 8-aligned buffer, so it does), reassembled into a fresh slice otherwise.
// The in-place view is shared by every local member that reads the slot and
// keeps the whole frame alive, so collectives copy out what they return.
func bytesToSlice[T any](parts [][]byte) []T {
	var z T
	es := int(unsafe.Sizeof(z))
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	if es == 0 || total == 0 {
		return nil
	}
	if len(parts) == 1 {
		if p := unsafe.Pointer(&parts[0][0]); uintptr(p)%unsafe.Alignof(z) == 0 {
			return unsafe.Slice((*T)(p), total/es)
		}
	}
	out := make([]T, total/es)
	dst := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), total)
	off := 0
	for _, p := range parts {
		copy(dst[off:], p)
		off += len(p)
	}
	return out
}

// slotSlice reads member j's posted single-buffer payload: a direct type
// assertion for local members, a byte decode for remote ones. Returns nil
// when nothing was posted (withheld, dead, or synthesized-dead slots).
func slotSlice[T any](c *Comm, j int) []T {
	p := c.sh.slots[j].payload
	if p == nil {
		return nil
	}
	if rp, ok := p.(remoteParts); ok {
		return bytesToSlice[T](rp.parts)
	}
	return p.([]T)
}

// slotPart reads buffer i of member j's posted per-destination buffer list.
func slotPart[T any](c *Comm, j, i int) []T {
	p := c.sh.slots[j].payload
	if p == nil {
		return nil
	}
	if rp, ok := p.(remoteParts); ok {
		if i >= len(rp.parts) {
			return nil
		}
		return bytesToSlice[T](rp.parts[i : i+1])
	}
	return p.([][]T)[i]
}

// controlParts builds the wire parts for a control payload (nil on the
// in-process backend, where nothing is serialized).
func controlParts[T any](c *Comm, s []T) [][]byte {
	if c.sh.dist == nil {
		return nil
	}
	return [][]byte{sliceBytes(s)}
}

// corruptCopy returns a copy of s with one bit flipped in its first element,
// or ok=false when there is nothing to corrupt. The input is never modified:
// a retry resends the caller's clean buffer.
func corruptCopy[T any](s []T) ([]T, bool) {
	if len(s) == 0 || unsafe.Sizeof(s[0]) == 0 {
		return nil, false
	}
	cp := append([]T(nil), s...)
	b := unsafe.Slice((*byte)(unsafe.Pointer(&cp[0])), int(unsafe.Sizeof(cp[0])))
	b[0] ^= 1
	return cp, true
}

// contribute1 runs the transport protocol for a single-buffer payload: it
// consults the transport (sleeping any injected delay), checksums and
// possibly corrupts the posted copy, posts the envelope, and (socket
// backend) ships it to the remote processes. Must be followed by
// rendezvous + verify + payload read + complete.
func contribute1[T any](c *Comm, kind Kind, seq uint64, send []T) {
	act := c.rank.intercept(kind, c.Size())
	ctr := contribution{delay: act.Delay, withheld: act.Withhold, failed: act.Fail, dead: act.Kill}
	var parts [][]byte
	if !ctr.failed && !ctr.withheld && !ctr.dead {
		post := send
		if c.faulty() {
			ctr.declared = sumSlice(0, send)
			ctr.posted = ctr.declared
			c.rank.sums++
			if act.Corrupt {
				if cp, ok := corruptCopy(send); ok {
					post = cp
					ctr.posted = sumSlice(0, cp)
					c.rank.sums++
					c.rank.Faults.Corruptions++
				}
			}
		}
		ctr.payload = post
		if c.sh.dist != nil {
			parts = [][]byte{sliceBytes(post)}
		}
	}
	c.sh.slots[c.me] = ctr
	c.distSend(seq, wireData, &ctr, parts)
}

// sumParts is the envelope checksum of a per-destination buffer list.
func sumParts[T any](bufs [][]T) uint64 {
	var h uint64
	for _, buf := range bufs {
		h = sumSlice(h, buf)
	}
	return h
}

// contribute2 is contribute1 for per-destination buffer lists (alltoallv).
// Corruption flips a bit in a copy of the first non-empty destination buffer.
func contribute2[T any](c *Comm, kind Kind, seq uint64, send [][]T) {
	act := c.rank.intercept(kind, c.Size())
	ctr := contribution{delay: act.Delay, withheld: act.Withhold, failed: act.Fail, dead: act.Kill}
	var parts [][]byte
	if !ctr.failed && !ctr.withheld && !ctr.dead {
		post := send
		if c.faulty() {
			ctr.declared = sumParts(send)
			ctr.posted = ctr.declared
			c.rank.sums++
			if act.Corrupt {
				for j, buf := range send {
					if cp, ok := corruptCopy(buf); ok {
						post = append([][]T(nil), send...)
						post[j] = cp
						ctr.posted = sumParts(post)
						c.rank.sums++
						c.rank.Faults.Corruptions++
						break
					}
				}
			}
		}
		ctr.payload = post
		if c.sh.dist != nil {
			parts = make([][]byte, len(post))
			for j, buf := range post {
				parts[j] = sliceBytes(buf)
			}
		}
	}
	c.sh.slots[c.me] = ctr
	c.distSend(seq, wireData, &ctr, parts)
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
	seq := c.nextSeq()
	tok := c.traceEnter()
	es := elemSize[T]()
	c.rank.Stats.Calls[KindAlltoallv]++
	for j, buf := range send {
		if j != c.me {
			c.account(KindAlltoallv, j, int64(len(buf))*es)
		}
	}
	contribute2(c, KindAlltoallv, seq, send)
	c.rendezvous(seq, nil)
	err := c.verify(KindAlltoallv, nil)
	var recv [][]T
	if err == nil {
		recv = make([][]T, k)
		for j := 0; j < k; j++ {
			if mine := slotPart[T](c, j, c.me); len(mine) > 0 {
				recv[j] = append([]T(nil), mine...)
			}
		}
	}
	c.complete(seq)
	c.traceExit("alltoallv", tok, err)
	return recv, err
}

// Allgatherv gathers each member's buffer on every member; result[i] is a
// copy of member i's buffer. The copies happen before the closing barrier so
// a sender mutating its buffer right after the call cannot corrupt any
// receiver's view (MPI value semantics).
func Allgatherv[T any](c *Comm, send []T) ([][]T, error) {
	seq := c.nextSeq()
	tok := c.traceEnter()
	k := c.Size()
	es := elemSize[T]()
	c.rank.Stats.Calls[KindAllgather]++
	for j := 0; j < k; j++ {
		if j != c.me {
			c.account(KindAllgather, j, int64(len(send))*es)
		}
	}
	contribute1(c, KindAllgather, seq, send)
	c.rendezvous(seq, nil)
	err := c.verify(KindAllgather, nil)
	var out [][]T
	if err == nil {
		out = make([][]T, k)
		for j := 0; j < k; j++ {
			if posted := slotSlice[T](c, j); len(posted) > 0 {
				out[j] = append([]T(nil), posted...)
			}
		}
	}
	c.complete(seq)
	c.traceExit("allgatherv", tok, err)
	return out, err
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
	k := c.Size()
	n := len(send)
	if len(dst) != k*n {
		panic("comm: AllgathervUniform dst length must be Size()*len(send)")
	}
	seq := c.nextSeq()
	tok := c.traceEnter()
	es := elemSize[T]()
	c.rank.Stats.Calls[KindAllgather]++
	for j := 0; j < k; j++ {
		if j != c.me {
			c.account(KindAllgather, j, int64(n)*es)
		}
	}
	contribute1(c, KindAllgather, seq, send)
	c.rendezvous(seq, nil)
	err := c.verify(KindAllgather, nil)
	if err == nil {
		for j := 0; j < k; j++ {
			posted := slotSlice[T](c, j)
			if len(posted) != n {
				panic("comm: AllgathervUniform contribution length mismatch")
			}
			copy(dst[j*n:(j+1)*n], posted)
		}
	}
	c.complete(seq)
	c.traceExit("allgatherv_uniform", tok, err)
	return err
}

// ReduceScatterOr ORs all members' full-length word vectors and returns the
// caller's segment of the result. Segments are the standard block
// decomposition: member i owns words [i*len/k, (i+1)*len/k). All members must
// pass equal-length slices. Traffic accounting follows the pairwise-exchange
// algorithm: each member sends every other member that member's segment.
func ReduceScatterOr(c *Comm, words []uint64) ([]uint64, error) {
	seq := c.nextSeq()
	tok := c.traceEnter()
	k := c.Size()
	c.rank.Stats.Calls[KindReduceScatter]++
	n := len(words)
	lo, hi := segBounds(n, k, c.me)
	for j := 0; j < k; j++ {
		if j != c.me {
			jlo, jhi := segBounds(n, k, j)
			c.account(KindReduceScatter, j, int64(jhi-jlo)*8)
		}
	}
	contribute1(c, KindReduceScatter, seq, words)
	c.rendezvous(seq, nil)
	err := c.verify(KindReduceScatter, nil)
	var seg []uint64
	if err == nil {
		seg = make([]uint64, hi-lo)
		for j := 0; j < k; j++ {
			other := slotSlice[uint64](c, j)
			for i := range seg {
				seg[i] |= other[lo+i]
			}
		}
	}
	c.complete(seq)
	c.traceExit("reduce_scatter_or", tok, err)
	return seg, err
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

// AllgathervSegments reassembles a vector whose segment i lives on member i
// (the inverse layout of ReduceScatterOr) into the full-length dst on every
// member. On error dst is left untouched.
func AllgathervSegments(c *Comm, seg []uint64, dst []uint64) error {
	parts, err := Allgatherv(c, seg)
	if err != nil {
		return err
	}
	k := c.Size()
	for j := 0; j < k; j++ {
		lo, hi := segBounds(len(dst), k, j)
		if hi-lo != len(parts[j]) {
			panic("comm: segment length mismatch in AllgathervSegments")
		}
		copy(dst[lo:hi], parts[j])
	}
	return nil
}

// AllreduceOr ORs the members' word vectors in place on every member. It is
// implemented as reduce-scatter followed by allgather, which is both the
// standard large-vector algorithm and the decomposition the paper's Figure 11
// accounts separately. Both halves always run so the collective schedule
// stays identical on every member even when the first half fails; on error
// words is left untouched.
func AllreduceOr(c *Comm, words []uint64) error {
	seg, err := ReduceScatterOr(c, words)
	if err != nil {
		// Keep the schedule: the allgather half still rendezvouses, with an
		// empty segment, and its result is discarded.
		_, err2 := Allgatherv(c, []uint64(nil))
		_ = err2
		return err
	}
	return AllgathervSegments(c, seg, words)
}

// AllreduceMaxInt64 computes the element-wise maximum across members in
// place. Used by the delayed reduction of the delegated parent array, where
// valid parents (≥ 0) win over the -1 sentinel. On error vals is untouched,
// which makes retrying the (idempotent, monotone) reduction safe.
func AllreduceMaxInt64(c *Comm, vals []int64) error {
	seq := c.nextSeq()
	tok := c.traceEnter()
	k := c.Size()
	c.rank.Stats.Calls[KindReduceScatter]++
	n := len(vals)
	for j := 0; j < k; j++ {
		if j != c.me {
			jlo, jhi := segBounds(n, k, j)
			c.account(KindReduceScatter, j, int64(jhi-jlo)*8)
		}
	}
	contribute1(c, KindReduceScatter, seq, vals)
	c.rendezvous(seq, nil)
	err := c.verify(KindReduceScatter, nil)
	lo, hi := segBounds(n, k, c.me)
	var seg []int64
	if err == nil {
		seg = make([]int64, hi-lo)
		copy(seg, vals[lo:hi])
		for j := 0; j < k; j++ {
			if j == c.me {
				continue
			}
			other := slotSlice[int64](c, j)
			for i := range seg {
				if other[lo+i] > seg[i] {
					seg[i] = other[lo+i]
				}
			}
		}
	}
	c.complete(seq)
	parts, err2 := Allgatherv(c, seg)
	if err == nil {
		err = err2
	}
	if err == nil {
		for j := 0; j < k; j++ {
			jlo, jhi := segBounds(n, k, j)
			copy(vals[jlo:jhi], parts[j][:jhi-jlo])
		}
	}
	c.traceExit("allreduce_max", tok, err)
	return err
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
	seq := c.nextSeq()
	tok := c.traceEnter()
	c.rank.Stats.Calls[KindReduceScatter]++
	for j := 0; j < c.Size(); j++ {
		if j != c.me {
			c.account(KindReduceScatter, j, 8*int64(len(vals)))
		}
	}
	contribute1(c, KindReduceScatter, seq, vals)
	c.rendezvous(seq, nil)
	err := c.verify(KindReduceScatter, nil)
	var sums []int64
	if err == nil {
		sums = make([]int64, len(vals))
		for j := 0; j < c.Size(); j++ {
			other := slotSlice[int64](c, j)
			for i := range sums {
				sums[i] += other[i]
			}
		}
	}
	c.complete(seq)
	c.traceExit("allreduce_sum", tok, err)
	return sums, err
}

// ControlSumInt64 sums scalar contributions like AllreduceSumInt64 but rides
// the control plane: it is never intercepted by the fault transport and
// cannot fail. The resilient engine uses it to vote on whether any rank saw a
// collective error in an iteration — real systems run exactly this kind of
// agreement on a reliable out-of-band channel (and so it is also exempt from
// data-plane traffic accounting). On the socket backend a dead process's
// contribution is synthesized as zero.
func ControlSumInt64(c *Comm, v int64) int64 {
	seq := c.nextSeq()
	vals := []int64{v}
	ctr := contribution{payload: vals}
	c.sh.slots[c.me] = ctr
	c.distSend(seq, wireControl, &ctr, controlParts(c, vals))
	c.rendezvous(seq, nil)
	var sum int64
	for j := 0; j < c.Size(); j++ {
		if s := slotSlice[int64](c, j); len(s) > 0 {
			sum += s[0]
		}
	}
	c.complete(seq)
	return sum
}

// ControlOrWords ORs the members' fixed-length word vectors on the control
// plane: like ControlSumInt64 it is never intercepted by the fault transport
// and cannot fail — even a dead rank still posts its vector, which is exactly
// what the membership protocol needs (the zombie's goroutine doubles as its
// failure detector and contributes its own death bit). All members must pass
// equal-length vectors. The engine's per-iteration vote rides this: word 0
// carries the step-failure mask, the rest a dead-rank bitmask. On the socket
// backend a dead PROCESS has no zombie to vote; the comm layer synthesizes
// the vote its ranks would have cast, setting their dead-rank bits.
func ControlOrWords(c *Comm, words []uint64) []uint64 {
	seq := c.nextSeq()
	cp := append([]uint64(nil), words...)
	ctr := contribution{payload: cp}
	c.sh.slots[c.me] = ctr
	c.distSend(seq, wireControl, &ctr, controlParts(c, cp))
	c.rendezvous(seq, nil)
	out := make([]uint64, len(words))
	for j := 0; j < c.Size(); j++ {
		other := slotSlice[uint64](c, j)
		if other == nil {
			if c.sh.slots[j].dead {
				markDeadRank(out, c.sh.members[j])
			}
			continue
		}
		for i := range out {
			out[i] |= other[i]
		}
	}
	c.complete(seq)
	return out
}

// ControlGatherSlices gathers every member's slice on every member over the
// control plane: like ControlSumInt64 it is never intercepted by the fault
// transport and cannot fail. The distributed engine's result assembly rides
// it — after a run succeeds each process holds only its local ranks' owned
// segments of the global result arrays, and one control gather ships the rest
// without re-opening the data-plane schedule to injected faults. out[j] is
// member j's slice; a dead process's members contribute nil. Nothing is
// copied: a local member's slice aliases the sender's buffer and a remote
// member's the received frame, which every local caller shares; callers must
// copy before mutating.
func ControlGatherSlices[T any](c *Comm, send []T) [][]T {
	seq := c.nextSeq()
	ctr := contribution{payload: send}
	c.sh.slots[c.me] = ctr
	c.distSend(seq, wireControl, &ctr, controlParts(c, send))
	c.rendezvous(seq, nil)
	out := make([][]T, c.Size())
	for j := range out {
		out[j] = slotSlice[T](c, j)
	}
	c.complete(seq)
	return out
}

// AllreduceSumFloat64 sums the members' float64 vectors element-wise in
// place on every member. Summation order is member order, so every member
// computes bit-identical results — the property PageRank's hub sum relies on
// to keep replicated hub values consistent without re-broadcasting.
// On error vals is left untouched.
func AllreduceSumFloat64(c *Comm, vals []float64) error {
	seq := c.nextSeq()
	tok := c.traceEnter()
	k := c.Size()
	c.rank.Stats.Calls[KindReduceScatter]++
	n := len(vals)
	for j := 0; j < k; j++ {
		if j != c.me {
			jlo, jhi := segBounds(n, k, j)
			c.account(KindReduceScatter, j, int64(jhi-jlo)*8)
		}
	}
	contribute1(c, KindReduceScatter, seq, vals)
	c.rendezvous(seq, nil)
	err := c.verify(KindReduceScatter, nil)
	lo, hi := segBounds(n, k, c.me)
	var seg []float64
	if err == nil {
		seg = make([]float64, hi-lo)
		for j := 0; j < k; j++ {
			other := slotSlice[float64](c, j)
			for i := range seg {
				seg[i] += other[lo+i]
			}
		}
	}
	c.complete(seq)
	parts, err2 := Allgatherv(c, seg)
	if err == nil {
		err = err2
	}
	if err == nil {
		for j := 0; j < k; j++ {
			jlo, jhi := segBounds(n, k, j)
			copy(vals[jlo:jhi], parts[j][:jhi-jlo])
		}
	}
	c.traceExit("allreduce_sum_f64", tok, err)
	return err
}
