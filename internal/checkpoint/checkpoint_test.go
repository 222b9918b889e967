package checkpoint

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

const (
	hubWords = 2
	lWords   = 4
	hubLen   = 100
	lLen     = 200
)

func openScope(t *testing.T) (*Store, *RunScope) {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Scope("run")
	if err != nil {
		t.Fatal(err)
	}
	return s, sc
}

// writeChain commits a bootstrap record plus iterations 0..upTo-1 through a
// Writer, mutating the state a little every iteration, and returns the final
// state for comparison.
func writeChain(t *testing.T, sc *RunScope, rank int, upTo int) *State {
	t.Helper()
	states := writeChainStates(t, sc, rank, upTo)
	return states[len(states)-1]
}

// writeChainStates is writeChain returning the state as of every capture:
// element i is the state committed for iteration i-1.
func writeChainStates(t *testing.T, sc *RunScope, rank int, upTo int) []*State {
	t.Helper()
	w, err := NewWriter(sc, rank, hubWords, lWords, hubLen, lLen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := NewState(hubWords, lWords, hubLen, lLen)
	var states []*State
	post := func(iter int64) {
		if !w.Checkpoint(iter, true, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
			cur.ParentHub, cur.ParentL, cur.ActiveL, cur.VisitL) {
			t.Fatalf("mandatory capture of iter %d dropped", iter)
		}
		snap := NewState(hubWords, lWords, hubLen, lLen)
		if err := copyState(snap, cur); err != nil {
			t.Fatal(err)
		}
		snap.Iter = iter
		states = append(states, snap)
	}
	cur.HubFrontier[0] = 1
	cur.ParentHub[0] = 7
	post(-1)
	for it := 0; it < upTo; it++ {
		cur.HubFrontier[it%hubWords] ^= 1 << uint(it)
		cur.HubVisited[it%hubWords] |= 1 << uint(it)
		cur.LFrontier[it%lWords] = uint64(it * 3)
		cur.LVisited[it%lWords] |= uint64(it + 1)
		cur.ParentHub[it%hubLen] = int64(it)
		cur.ParentL[it%lLen] = int64(it * 2)
		cur.ActiveL = int64(it + 10)
		cur.VisitL += int64(it + 10)
		post(int64(it))
	}
	ws := w.Close()
	if ws.Segments != int64(upTo)+1 {
		t.Fatalf("writer committed %d segments, want %d", ws.Segments, upTo+1)
	}
	if ws.Errors != 0 || ws.Dropped != 0 {
		t.Fatalf("writer stats %+v, want no errors/drops", ws)
	}
	return states
}

func sameState(t *testing.T, got, want *State) {
	t.Helper()
	if got.Iter != want.Iter || got.ActiveL != want.ActiveL || got.VisitL != want.VisitL {
		t.Fatalf("scalars: got (%d,%d,%d), want (%d,%d,%d)",
			got.Iter, got.ActiveL, got.VisitL, want.Iter, want.ActiveL, want.VisitL)
	}
	for i := range want.HubFrontier {
		if got.HubFrontier[i] != want.HubFrontier[i] || got.HubVisited[i] != want.HubVisited[i] {
			t.Fatalf("hub word %d differs", i)
		}
	}
	for i := range want.LFrontier {
		if got.LFrontier[i] != want.LFrontier[i] || got.LVisited[i] != want.LVisited[i] {
			t.Fatalf("L word %d differs", i)
		}
	}
	for i := range want.ParentHub {
		if got.ParentHub[i] != want.ParentHub[i] {
			t.Fatalf("parentHub[%d] = %d, want %d", i, got.ParentHub[i], want.ParentHub[i])
		}
	}
	for i := range want.ParentL {
		if got.ParentL[i] != want.ParentL[i] {
			t.Fatalf("parentL[%d] = %d, want %d", i, got.ParentL[i], want.ParentL[i])
		}
	}
}

func TestWriterReplayRoundTrip(t *testing.T) {
	_, sc := openScope(t)
	want := writeChain(t, sc, 0, 6)
	want.Iter = 5
	got, n, err := sc.Replay(0, 5, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatal("replay read zero bytes")
	}
	sameState(t, got, want)
	// Replaying a prefix stops exactly at the requested iteration.
	mid, _, err := sc.Replay(0, 2, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	if mid.Iter != 2 {
		t.Fatalf("prefix replay stopped at %d, want 2", mid.Iter)
	}
}

func TestLatestCompleteIsIntersection(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	writeChain(t, sc, 1, 4) // rank 1 committed less
	it, ok := sc.LatestComplete(2)
	if !ok || it != 3 {
		t.Fatalf("LatestComplete = (%d, %v), want (3, true)", it, ok)
	}
	// A rank without a boot record poisons the whole scope.
	if _, ok := sc.LatestComplete(3); ok {
		t.Fatal("scope with a bootless rank reported resumable")
	}
}

// TestWriterBoundsStaleness pins the Writer's contract: hammered with
// droppable captures far faster than it can commit, every MaxLag-th call is
// kept on every rank, so the newest iteration complete on all ranks trails the
// newest attempted by less than MaxLag — with no dependence on timing.
func TestWriterBoundsStaleness(t *testing.T) {
	_, sc := openScope(t)
	const ranks, last = 3, 199
	var dropped int64
	for r := 0; r < ranks; r++ {
		w, err := NewWriter(sc, r, hubWords, lWords, hubLen, lLen, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		cur := NewState(hubWords, lWords, hubLen, lLen)
		for it := int64(-1); it <= last; it++ {
			cur.ParentL[int(it+1)%lLen] = it
			w.Checkpoint(it, it == -1, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
				cur.ParentHub, cur.ParentL, cur.ActiveL, cur.VisitL)
		}
		ws := w.Close()
		if ws.Segments+ws.Dropped != last+2 || ws.Errors != 0 {
			t.Fatalf("rank %d: writer stats %+v do not account for %d captures", r, ws, last+2)
		}
		dropped += ws.Dropped
	}
	it, ok := sc.LatestComplete(ranks)
	if !ok || it <= last-MaxLag {
		t.Fatalf("LatestComplete = (%d, %v), want > %d", it, ok, last-MaxLag)
	}
	t.Logf("%d captures dropped, resumable at %d of %d", dropped, it, last)
}

// readLog returns rank's log and its scanned chain.
func readLog(t *testing.T, sc *RunScope, rank int) ([]byte, []logRecord) {
	t.Helper()
	data, recs, err := sc.chain(rank)
	if err != nil {
		t.Fatal(err)
	}
	return data, recs
}

func writeLog(t *testing.T, sc *RunScope, rank int, data []byte) {
	t.Helper()
	if err := os.WriteFile(sc.logPath(rank), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailFallsBackExactlyOneCapture is the log's crash contract, byte by
// byte: wherever inside the newest record the process died, the scan ignores
// the torn tail, LatestComplete is the capture before it, and Replay
// reproduces exactly the state of that capture.
func TestTornTailFallsBackExactlyOneCapture(t *testing.T) {
	_, sc := openScope(t)
	states := writeChainStates(t, sc, 0, 6)
	data, recs := readLog(t, sc, 0)
	if len(recs) != 7 || recs[6].end != len(data) {
		t.Fatalf("chain has %d records ending at %d of %d bytes, want 7 filling the log", len(recs), recs[len(recs)-1].end, len(data))
	}
	last := recs[6]
	for cut := last.start; cut < last.end; cut++ {
		writeLog(t, sc, 0, data[:cut])
		it, ok := sc.LatestComplete(1)
		if !ok || it != 4 {
			t.Fatalf("log cut at byte %d of [%d,%d): LatestComplete = (%d, %v), want (4, true)", cut, last.start, last.end, it, ok)
		}
		got, n, err := sc.Replay(0, 4, hubWords, lWords, hubLen, lLen)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if n != int64(last.start) {
			t.Fatalf("cut at %d: replay read %d bytes, want the %d before the torn record", cut, n, last.start)
		}
		sameState(t, got, states[5])
		// Asking for the torn iteration anyway surfaces the typed corruption.
		if _, _, err := sc.Replay(0, 5, hubWords, lWords, hubLen, lLen); !errors.Is(err, ErrCheckpointCorrupt) {
			t.Fatalf("cut at %d: replay past the torn record: %v, want ErrCheckpointCorrupt", cut, err)
		}
	}
}

func TestBitFlipFallsBackOneIteration(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	data, recs := readLog(t, sc, 0)
	data[(recs[6].start+recs[6].end)/2] ^= 0x10 // flip one payload bit; CRC must catch it
	writeLog(t, sc, 0, data)
	if it, ok := sc.LatestComplete(1); !ok || it != 4 {
		t.Fatalf("after bit flip LatestComplete = (%d, %v), want (4, true)", it, ok)
	}
	if _, _, err := sc.Replay(0, 5, hubWords, lWords, hubLen, lLen); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("replay of flipped record: %v, want ErrCheckpointCorrupt", err)
	}
	// The surviving prefix still replays cleanly.
	if _, _, err := sc.Replay(0, 4, hubWords, lWords, hubLen, lLen); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptMidChainPoisonsTail(t *testing.T) {
	_, sc := openScope(t)
	states := writeChainStates(t, sc, 0, 6)
	data, recs := readLog(t, sc, 0)
	data[recs[3].start+headerSize+1] ^= 0xff // the record for iteration 2
	writeLog(t, sc, 0, data)
	// Deltas build on each other: everything at or past the corrupt record
	// is unusable, valid-looking bytes notwithstanding.
	if it, ok := sc.LatestComplete(1); !ok || it != 1 {
		t.Fatalf("LatestComplete = (%d, %v), want (1, true)", it, ok)
	}
	got, _, err := sc.Replay(0, 1, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, states[2])
	// A log whose very first record is damaged cannot seed a resume at all.
	data[recs[0].start+headerSize] ^= 0xff
	writeLog(t, sc, 0, data)
	if _, ok := sc.LatestComplete(1); ok {
		t.Fatal("scope with a damaged boot record reported resumable")
	}
}

// TestTruncateCutsAtRecordBoundary: the log ends exactly after the record
// asked for, whatever followed it — whole records or a torn one.
func TestTruncateCutsAtRecordBoundary(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	data, recs := readLog(t, sc, 0)
	writeLog(t, sc, 0, data[:len(data)-3]) // and a torn tail on top
	if err := sc.Truncate(0, 2); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(sc.logPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != int64(recs[3].end) {
		t.Fatalf("log is %d bytes after Truncate(2), want %d (the end of iteration 2's record)", fi.Size(), recs[3].end)
	}
	if it, ok := sc.LatestComplete(1); !ok || it != 2 {
		t.Fatalf("LatestComplete = (%d, %v), want (2, true)", it, ok)
	}
	// A rank that never wrote has nothing to cut.
	if err := sc.Truncate(7, 2); err != nil {
		t.Fatal(err)
	}
}

// TestOneLogPerRank pins the delta tier's footprint: a run of any length
// leaves one file per rank in the scope and nothing else — no per-iteration
// files, no temporaries.
func TestOneLogPerRank(t *testing.T) {
	_, sc := openScope(t)
	for r := 0; r < 3; r++ {
		writeChain(t, sc, r, 20)
	}
	entries, err := os.ReadDir(sc.Dir())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"rank-0000.log", "rank-0001.log", "rank-0002.log"}; !slices.Equal(names, want) {
		t.Fatalf("scope holds %v, want %v", names, want)
	}
}

// TestFreshWriterRestartsTheChain: a Writer opened without a resume state owns
// the log from byte zero, so a stale chain under the same scope cannot shadow
// or precede the new one.
func TestFreshWriterRestartsTheChain(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	want := writeChain(t, sc, 0, 2)
	if it, ok := sc.LatestComplete(1); !ok || it != 1 {
		t.Fatalf("LatestComplete = (%d, %v), want (1, true)", it, ok)
	}
	got, _, err := sc.Replay(0, 1, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	sameState(t, got, want)
}

// TestCheckpointRejectsWrongGeometry: a slice of the wrong length is a caller
// bug; persisting a silently clipped copy of it would be worse than stopping.
func TestCheckpointRejectsWrongGeometry(t *testing.T) {
	_, sc := openScope(t)
	w, err := NewWriter(sc, 0, hubWords, lWords, hubLen, lLen, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	cur := NewState(hubWords, lWords, hubLen, lLen)
	defer func() {
		if recover() == nil {
			t.Fatal("Checkpoint accepted a parent array one slot short")
		}
	}()
	w.Checkpoint(-1, true, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
		cur.ParentHub, cur.ParentL[:lLen-1], 0, 0)
}

// TestTearAt is the helper engine tests stage torn writes with.
func TestTearAt(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 6)
	if err := sc.TearAt(0, 3); err != nil {
		t.Fatal(err)
	}
	if it, ok := sc.LatestComplete(1); !ok || it != 2 {
		t.Fatalf("after TearAt(3) LatestComplete = (%d, %v), want (2, true)", it, ok)
	}
	if err := sc.TearAt(0, 3); err == nil {
		t.Fatal("TearAt found a record that is no longer in the chain")
	}
}

func TestWriterResumeSeedsShadow(t *testing.T) {
	_, sc := openScope(t)
	writeChain(t, sc, 0, 4)
	if err := sc.Truncate(0, 1); err != nil {
		t.Fatal(err)
	}
	resume, _, err := sc.Replay(0, 1, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	// A post-resume writer diffs against the replayed state: re-committing
	// identical state for iteration 2 must produce an (almost) empty delta
	// that still replays to the same result.
	w, err := NewWriter(sc, 0, hubWords, lWords, hubLen, lLen, resume, nil)
	if err != nil {
		t.Fatal(err)
	}
	cur := NewState(hubWords, lWords, hubLen, lLen)
	if err := copyState(cur, resume); err != nil {
		t.Fatal(err)
	}
	cur.LVisited[0] |= 1 << 40
	cur.ActiveL = 99
	w.Checkpoint(2, true, cur.HubFrontier, cur.HubVisited, cur.LFrontier, cur.LVisited,
		cur.ParentHub, cur.ParentL, cur.ActiveL, cur.VisitL)
	w.Close()
	got, _, err := sc.Replay(0, 2, hubWords, lWords, hubLen, lLen)
	if err != nil {
		t.Fatal(err)
	}
	cur.Iter = 2
	sameState(t, got, cur)
}

func TestGraphTierRoundTripAndIdentity(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := GraphMeta{N: 1 << 10, Ranks: 4, MeshRows: 2, MeshCols: 2, PerRank: 256, NumE: 3, NumH: 17, ThreshE: 128, ThreshH: 16}
	if s.HasGraph(meta) {
		t.Fatal("empty store claims a graph tier")
	}
	type fakeGraph struct {
		Rank   int
		LocalN int
		Rows   []int32
	}
	for r := 0; r < 4; r++ {
		if _, err := s.WriteRankGraph(r, &fakeGraph{Rank: r, LocalN: 256, Rows: []int32{1, 2, 3}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.WriteGraphMeta(meta); err != nil {
		t.Fatal(err)
	}
	if !s.HasGraph(meta) {
		t.Fatal("written graph tier not recognized")
	}
	other := meta
	other.ThreshH = 99
	if s.HasGraph(other) {
		t.Fatal("mismatched partitioning accepted")
	}
	var rg fakeGraph
	n, err := s.ReadRankGraph(2, &rg)
	if err != nil || n <= 0 {
		t.Fatalf("ReadRankGraph: n=%d err=%v", n, err)
	}
	if rg.Rank != 2 || rg.LocalN != 256 {
		t.Fatalf("rank graph decoded wrong: %+v", rg)
	}
	// Rank mismatch (wrong file under the right name) is corruption.
	a := filepath.Join(s.Dir(), "graph", "rank-0001.ckpt")
	b := filepath.Join(s.Dir(), "graph", "rank-0002.ckpt")
	data, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadRankGraph(1, &rg); !errors.Is(err, ErrCheckpointCorrupt) {
		t.Fatalf("cross-rank segment read: %v, want ErrCheckpointCorrupt", err)
	}
}

// logSeed is a valid three-record log for the fuzz corpus' geometry.
func logSeed(t testing.TB) []byte {
	var log []byte
	shadow, cur := NewState(hubWords, lWords, hubLen, lLen), NewState(hubWords, lWords, hubLen, lLen)
	for it := int64(-1); it < 2; it++ {
		cur.HubFrontier[0] ^= uint64(it + 7)
		cur.LVisited[lWords-1] |= 1 << uint(it+1)
		cur.ParentHub[hubLen-1] = it
		cur.ParentL[int(it+1)*90] = it * 3
		cur.ActiveL++
		log = append(log, sealFrame(appendDelta(appendHeader(nil, kindDelta, 0, it), shadow, cur))...)
		if err := copyState(shadow, cur); err != nil {
			t.Fatal(err)
		}
	}
	return log
}

// FuzzDeltaLog feeds arbitrary bytes to the log reader: scanning and folding
// must never panic, never index outside the log or the state, and never trust
// a decoded length or count enough to allocate from it. What the scan accepts
// must be a well-formed chain.
func FuzzDeltaLog(f *testing.F) {
	seed := logSeed(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-5]) // torn tail
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := scanLog(data, 0)
		st := NewState(hubWords, lWords, hubLen, lLen)
		off, prev := 0, int64(-2)
		for _, rec := range recs {
			if rec.start != off || rec.end > len(data) || rec.end-rec.start < headerSize+4 || rec.iter <= prev {
				t.Fatalf("scan accepted a malformed chain: %+v after offset %d, iteration %d", rec, off, prev)
			}
			off, prev = rec.end, rec.iter
			st.applyDelta(rec.iter, rec.payload(data))
		}
		if len(recs) > 0 && recs[0].iter != -1 {
			t.Fatalf("chain opens with iteration %d, not the bootstrap", recs[0].iter)
		}
		// The CRC keeps mutated payloads from the fold above, so also fold
		// the raw input as if a record had framed it.
		NewState(hubWords, lWords, hubLen, lLen).applyDelta(0, data)
		if len(data) > headerSize {
			NewState(hubWords, lWords, hubLen, lLen).applyDelta(0, data[headerSize:])
		}
	})
}

func TestCommitIsAtomicRename(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "seg.ckpt")
	if err := commit(p, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(p + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("tmp file left behind after commit")
	}
	got, err := os.ReadFile(p)
	if err != nil || string(got) != "hello" {
		t.Fatalf("committed contents %q err=%v", got, err)
	}
}

// BenchmarkDeltaEncode times the writer goroutine's fused diff + encode pass
// — shadow against capture into the retained record buffer, header and CRC
// included — on one rank's state of the SCALE 18 / four-rank analytics
// workload, with 1%, 6% and 100% of the parent slots (and the matching visited
// words) changed since the last record. MB/s is state scanned per second.
func BenchmarkDeltaEncode(b *testing.B) {
	const lLen = 1 << 18 / 4
	const hubLen, hubWords, lWords = lLen / 16, lLen / 16 / 64, lLen / 64
	for _, pct := range []int{1, 6, 100} {
		shadow, cur := NewState(hubWords, lWords, hubLen, lLen), NewState(hubWords, lWords, hubLen, lLen)
		for i := 0; i < lLen; i += 100 / pct {
			cur.ParentL[i] = int64(i)
			cur.LVisited[i/64] |= 1 << uint(i%64)
		}
		for i := 0; i < hubLen; i += 100 / pct {
			cur.ParentHub[i] = int64(i)
		}
		var enc []byte
		encode := func() {
			enc = sealFrame(appendDelta(appendHeader(enc[:0], kindDelta, 0, 7), shadow, cur))
		}
		encode() // grow the buffer once, as the writer's first record does
		b.Run(fmt.Sprintf("changed=%d%%", pct), func(b *testing.B) {
			if n := testing.AllocsPerRun(5, encode); n != 0 {
				b.Fatalf("a warm encode allocates %v times, want 0", n)
			}
			b.SetBytes(8 * (2*hubWords + 2*lWords + hubLen + lLen))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				encode()
			}
			b.ReportMetric(float64(len(enc)), "record_B")
		})
	}
}
