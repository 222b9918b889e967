// Package checkpoint is the two-tier store behind fail-stop recovery. The
// insight (shared with the SC'11 distributed-memory BFS line of work) is that
// the partitioned graph is enormous and immutable while the per-iteration
// traversal state is tiny and churning, so the two deserve different tiers:
//
//   - the graph tier — layout metadata plus every rank's partitioned
//     CSRs and delegation tables — is written once, right after
//     partitioning, under <dir>/graph/, one gob segment per file committed
//     by atomic rename;
//   - the delta tier — per-iteration frontier/parent/visited increments —
//     is written continuously during a run into one append-only log per
//     rank per run scope, <dir>/runs/<scope>/rank-NNNN.log, by an
//     asynchronous double-buffered Writer that never blocks the kernels.
//
// Every segment and every log record is CRC-32 framed, so a torn or damaged
// one is detected at read time: a graph-tier reader surfaces
// ErrCheckpointCorrupt, and a log scan stops at the first record that fails
// its length or CRC, which makes recovery fall back to the previous complete
// capture instead of consuming garbage. See Writer for what the log does and
// does not guarantee.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// ErrCheckpointCorrupt marks a segment or log record that failed its
// integrity checks: truncated header or payload, bad magic, CRC mismatch, or an
// undecodable payload. Match with errors.Is.
var ErrCheckpointCorrupt = errors.New("checkpoint: segment corrupt")

// Segment kinds.
const (
	kindGraphMeta byte = iota + 1
	kindRankGraph
	kindDelta
)

// Frame shared by graph-tier segments and delta-log records, little-endian:
//
//	[0:4)   magic "CPK2"
//	[4]     kind
//	[5:9)   rank
//	[9:17)  iteration (int64; -1 for the bootstrap record, 0 for graph tiers)
//	[17:21) payload length
//	[21:n)  payload (gob for the graph tier; see appendDiff for kindDelta)
//	[n:n+4) CRC-32 (IEEE) over bytes [0:n)
//
// The magic changed from "CPK1" when the delta tier became a log: a store
// written by an older build reads as "no valid tier" / "no valid boot record",
// so a resume (core.Engine.SetResumeFrom) across the format change restarts
// from the root.
const (
	segMagic   = 0x324b5043 // "CPK2"
	headerSize = 21
)

// appendHeader starts a frame on dst with the payload length left blank;
// sealFrame fills it in and appends the CRC once the payload is on.
func appendHeader(dst []byte, kind byte, rank int, iter int64) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, segMagic)
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rank))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(iter))
	return append(dst, 0, 0, 0, 0)
}

func sealFrame(frame []byte) []byte {
	binary.LittleEndian.PutUint32(frame[17:], uint32(len(frame)-headerSize))
	return binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
}

func encodeSegment(kind byte, rank int, iter int64, payload any) ([]byte, error) {
	pb := bytes.NewBuffer(appendHeader(nil, kind, rank, iter))
	if err := gob.NewEncoder(pb).Encode(payload); err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	return sealFrame(pb.Bytes()), nil
}

// frameAt verifies the frame starting at data[0] and returns its iteration
// stamp, its payload and its total length. why is non-empty when the bytes do
// not start with one whole, CRC-clean frame of the wanted kind and rank.
func frameAt(data []byte, wantKind byte, wantRank int) (iter int64, payload []byte, size int, why string) {
	if len(data) < headerSize+4 {
		return 0, nil, 0, "truncated header"
	}
	if binary.LittleEndian.Uint32(data[0:]) != segMagic {
		return 0, nil, 0, "bad magic"
	}
	if data[4] != wantKind {
		return 0, nil, 0, fmt.Sprintf("segment kind %d, want %d", data[4], wantKind)
	}
	if r := int(binary.LittleEndian.Uint32(data[5:])); r != wantRank {
		return 0, nil, 0, fmt.Sprintf("segment for rank %d, want %d", r, wantRank)
	}
	plen := int(binary.LittleEndian.Uint32(data[17:]))
	if plen < 0 || len(data)-headerSize-4 < plen {
		return 0, nil, 0, "truncated payload"
	}
	body := data[:headerSize+plen]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[headerSize+plen:]) {
		return 0, nil, 0, "crc mismatch"
	}
	return int64(binary.LittleEndian.Uint64(data[9:])), body[headerSize:], headerSize + plen + 4, ""
}

// commit writes a graph-tier segment next to path and renames it into place,
// the atomic publish that guarantees a reader never sees a half-written
// segment under the final name — a torn write leaves only a stale .tmp behind.
func commit(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func corruptErr(path, msg string) error {
	return fmt.Errorf("%s: %s: %w", path, msg, ErrCheckpointCorrupt)
}

// readSegment loads and verifies one graph-tier segment file, decoding its gob
// payload into payload (a pointer), and returns the file's size.
func readSegment(path string, wantKind byte, wantRank int, payload any) (size int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	size = int64(len(data))
	_, body, n, why := frameAt(data, wantKind, wantRank)
	if why == "" && n != len(data) {
		why = "trailing bytes"
	}
	if why != "" {
		return size, corruptErr(path, why)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(payload); err != nil {
		return size, corruptErr(path, "payload decode: "+err.Error())
	}
	return size, nil
}

// Store is a checkpoint directory.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "graph"), filepath.Join(dir, "runs")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// GraphMeta identifies the partitioning a graph tier was written for, so a
// store can be safely shared across engines: a mismatch means "repartition
// happened, rewrite the tier".
type GraphMeta struct {
	N          int64
	Ranks      int
	MeshRows   int
	MeshCols   int
	PerRank    int64
	NumE, NumH int
	ThreshE    int64
	ThreshH    int64
}

func (s *Store) graphMetaPath() string { return filepath.Join(s.dir, "graph", "meta.ckpt") }

func (s *Store) rankGraphPath(rank int) string {
	return filepath.Join(s.dir, "graph", fmt.Sprintf("rank-%04d.ckpt", rank))
}

// HasGraph reports whether a valid graph tier matching meta is present.
func (s *Store) HasGraph(meta GraphMeta) bool {
	var got GraphMeta
	if _, err := readSegment(s.graphMetaPath(), kindGraphMeta, 0, &got); err != nil {
		return false
	}
	return got == meta
}

// WriteGraphMeta commits the graph tier's identity segment.
func (s *Store) WriteGraphMeta(meta GraphMeta) (int64, error) {
	data, err := encodeSegment(kindGraphMeta, 0, 0, &meta)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), commit(s.graphMetaPath(), data)
}

// WriteRankGraph commits one rank's partitioned graph (any gob-encodable
// value; the engine stores its *partition.RankGraph).
func (s *Store) WriteRankGraph(rank int, rg any) (int64, error) {
	data, err := encodeSegment(kindRankGraph, rank, 0, rg)
	if err != nil {
		return 0, err
	}
	return int64(len(data)), commit(s.rankGraphPath(rank), data)
}

// ReadRankGraph loads and CRC-verifies one rank's graph tier into rg (a
// pointer), returning the bytes read. This is the read a replacement rank
// pays when it rejoins a restored world.
func (s *Store) ReadRankGraph(rank int, rg any) (int64, error) {
	return readSegment(s.rankGraphPath(rank), kindRankGraph, rank, rg)
}

// Scope opens (creating if needed) the named run scope in the delta tier.
func (s *Store) Scope(name string) (*RunScope, error) {
	dir := filepath.Join(s.dir, "runs", name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &RunScope{name: name, dir: dir}, nil
}

// RunScope is one run's delta-tier directory: one append-only log per rank.
type RunScope struct {
	name string
	dir  string
}

// Name returns the scope's name.
func (sc *RunScope) Name() string { return sc.name }

// Dir returns the scope's directory.
func (sc *RunScope) Dir() string { return sc.dir }

// Remove deletes the scope and everything under it.
func (sc *RunScope) Remove() error { return os.RemoveAll(sc.dir) }

func (sc *RunScope) logPath(rank int) string {
	return filepath.Join(sc.dir, fmt.Sprintf("rank-%04d.log", rank))
}

// State is one rank's complete BFS iteration state at an iteration boundary:
// the replicated hub bitmaps, the owner-local L bitmaps, both parent arrays,
// and the globally agreed counts. Iter -1 is the bootstrap state (root
// planted, no iterations run).
type State struct {
	Iter        int64
	HubFrontier []uint64
	HubVisited  []uint64
	LFrontier   []uint64
	LVisited    []uint64
	ParentHub   []int64
	ParentL     []int64
	ActiveL     int64
	VisitL      int64
}

// NewState allocates a zero State with the given word/element counts
// (parents initialized to the -1 sentinel), the starting point of a replay.
func NewState(hubWords, lWords, hubLen, lLen int) *State {
	st := &State{
		Iter:        -2,
		HubFrontier: make([]uint64, hubWords),
		HubVisited:  make([]uint64, hubWords),
		LFrontier:   make([]uint64, lWords),
		LVisited:    make([]uint64, lWords),
		ParentHub:   make([]int64, hubLen),
		ParentL:     make([]int64, lLen),
	}
	for i := range st.ParentHub {
		st.ParentHub[i] = -1
	}
	for i := range st.ParentL {
		st.ParentL[i] = -1
	}
	return st
}

// A kindDelta record's payload is flat little-endian, no reflection:
//
//	ActiveL, VisitL                      2 × int64
//	six sections, in State field order   HubFrontier, HubVisited, LFrontier,
//	                                     LVisited, ParentHub, ParentL
//
// and each section is a uint32 entry count followed by that many entries of
// (uvarint gap, 8-byte value): the words or slots that differ from the rank's
// previous committed record, gap being the distance from the slot after the
// previous entry (so a run of changed neighbours costs 9 bytes each). The
// bootstrap record is a diff against the all-zero / all minus-one NewState,
// which makes replay a single uniform fold.

// appendDiff appends one section: every slot of cur that differs from shadow.
func appendDiff[T uint64 | int64](dst []byte, shadow, cur []T) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	n, next := uint32(0), 0
	for i, v := range cur {
		if shadow[i] != v {
			dst = binary.AppendUvarint(dst, uint64(i-next))
			dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			n, next = n+1, i+1
		}
	}
	binary.LittleEndian.PutUint32(dst[at:], n)
	return dst
}

// appendDelta appends the payload that takes shadow to cur.
func appendDelta(dst []byte, shadow, cur *State) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(cur.ActiveL))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(cur.VisitL))
	dst = appendDiff(dst, shadow.HubFrontier, cur.HubFrontier)
	dst = appendDiff(dst, shadow.HubVisited, cur.HubVisited)
	dst = appendDiff(dst, shadow.LFrontier, cur.LFrontier)
	dst = appendDiff(dst, shadow.LVisited, cur.LVisited)
	dst = appendDiff(dst, shadow.ParentHub, cur.ParentHub)
	return appendDiff(dst, shadow.ParentL, cur.ParentL)
}

// applyDiff folds one section into dst and returns what follows it. The
// section is outside input: every index is checked against dst and every read
// against the payload, and nothing is allocated from a decoded count.
func applyDiff[T uint64 | int64](p []byte, dst []T) ([]byte, bool) {
	if len(p) < 4 {
		return nil, false
	}
	n := binary.LittleEndian.Uint32(p)
	p = p[4:]
	next := uint64(0)
	for ; n > 0; n-- {
		gap, k := binary.Uvarint(p)
		if k <= 0 || len(p)-k < 8 || gap >= uint64(len(dst)) || next+gap >= uint64(len(dst)) {
			return nil, false
		}
		dst[next+gap] = T(binary.LittleEndian.Uint64(p[k:]))
		next += gap + 1
		p = p[k+8:]
	}
	return p, true
}

// applyDelta folds one record's payload into st, whose geometry must be the
// writer's. false means the payload does not parse against that geometry; st
// may then be partly updated and must be discarded.
func (st *State) applyDelta(iter int64, p []byte) bool {
	if len(p) < 16 {
		return false
	}
	st.Iter = iter
	st.ActiveL = int64(binary.LittleEndian.Uint64(p))
	st.VisitL = int64(binary.LittleEndian.Uint64(p[8:]))
	p = p[16:]
	ok := true
	for _, words := range [][]uint64{st.HubFrontier, st.HubVisited, st.LFrontier, st.LVisited} {
		if p, ok = applyDiff(p, words); !ok {
			return false
		}
	}
	for _, slots := range [][]int64{st.ParentHub, st.ParentL} {
		if p, ok = applyDiff(p, slots); !ok {
			return false
		}
	}
	return len(p) == 0
}

// logRecord locates one verified record inside a rank log.
type logRecord struct {
	iter       int64
	start, end int // data[start:end] is the whole frame
}

func (r logRecord) payload(data []byte) []byte { return data[r.start+headerSize : r.end-4] }

// upTo returns the chain's prefix of records for iterations <= iter.
func upTo(recs []logRecord, iter int64) []logRecord {
	n := 0
	for n < len(recs) && recs[n].iter <= iter {
		n++
	}
	return recs[:n]
}

// scanLog walks a rank log from the front and returns its chain: the records
// up to the first one that fails its length or CRC check, is not for rank, or
// does not advance the iteration. Deltas build on each other, so nothing after
// such a record is usable, valid-looking bytes notwithstanding; a torn tail
// (the process died mid-append) is simply the shortest case. A chain must open
// with the bootstrap record (iteration -1); without it the result is empty.
// Payloads are not parsed here.
func scanLog(data []byte, rank int) []logRecord {
	var recs []logRecord
	for off := 0; off < len(data); {
		iter, _, size, why := frameAt(data[off:], kindDelta, rank)
		if why != "" {
			break
		}
		if len(recs) == 0 && iter != -1 || len(recs) > 0 && iter <= recs[len(recs)-1].iter {
			break
		}
		recs = append(recs, logRecord{iter: iter, start: off, end: off + size})
		off += size
	}
	return recs
}

// chain reads and scans rank's log. A missing log is an empty chain.
func (sc *RunScope) chain(rank int) ([]byte, []logRecord, error) {
	data, err := os.ReadFile(sc.logPath(rank))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, err
	}
	return data, scanLog(data, rank), nil
}

// LatestComplete returns the highest iteration present and valid in EVERY
// rank's chain — the only iteration all ranks can consistently resume from.
// -1 means "bootstrap only". ok is false when some rank has no valid
// bootstrap record, i.e. the scope cannot seed a resume at all and the engine
// must restart the traversal from the root.
func (sc *RunScope) LatestComplete(ranks int) (int64, bool) {
	common := make(map[int64]int)
	for r := 0; r < ranks; r++ {
		_, recs, err := sc.chain(r)
		if err != nil || len(recs) == 0 {
			return 0, false
		}
		for _, rec := range recs {
			common[rec.iter]++
		}
	}
	best, found := int64(0), false
	for it, cnt := range common {
		if cnt == ranks && (!found || it > best) {
			best, found = it, true
		}
	}
	return best, found
}

// Replay folds rank's chain up to and including iteration iter into a fresh
// State, returning the bytes read. Records beyond iter are ignored. iter must
// come from LatestComplete (or be -1 for bootstrap-only).
func (sc *RunScope) Replay(rank int, iter int64, hubWords, lWords, hubLen, lLen int) (*State, int64, error) {
	data, recs, err := sc.chain(rank)
	if err != nil {
		return nil, 0, err
	}
	if len(recs) == 0 {
		return nil, 0, fmt.Errorf("checkpoint: rank %d has no valid boot record in scope %s: %w",
			rank, sc.name, ErrCheckpointCorrupt)
	}
	recs = upTo(recs, iter)
	if len(recs) == 0 || recs[len(recs)-1].iter != iter {
		return nil, 0, fmt.Errorf("checkpoint: rank %d chain has no record for iteration %d: %w",
			rank, iter, ErrCheckpointCorrupt)
	}
	st := NewState(hubWords, lWords, hubLen, lLen)
	for _, rec := range recs {
		if !st.applyDelta(rec.iter, rec.payload(data)) {
			return nil, 0, corruptErr(sc.logPath(rank),
				fmt.Sprintf("record for iteration %d does not fit the state geometry", rec.iter))
		}
	}
	return st, int64(recs[len(recs)-1].end), nil
}

// Truncate cuts rank's log at the boundary after the record for iteration
// after, dropping later records and any unverifiable tail: on resume the
// engine re-executes those iterations and appends them again, and a stale or
// torn tail must not sit between the kept chain and the new records. No
// Writer may have the log open.
func (sc *RunScope) Truncate(rank int, after int64) error {
	_, recs, err := sc.chain(rank)
	if err != nil {
		return err
	}
	cut := 0
	if kept := upTo(recs, after); len(kept) > 0 {
		cut = kept[len(kept)-1].end
	}
	if err := os.Truncate(sc.logPath(rank), int64(cut)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// TearAt damages rank's log the way a process killed mid-append would have
// left it had iteration iter been its last capture: the log is cut in the
// middle of that record. It exists so tests outside this package can stage a
// torn write without knowing the on-disk layout.
func (sc *RunScope) TearAt(rank int, iter int64) error {
	_, recs, err := sc.chain(rank)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		if rec.iter == iter {
			return os.Truncate(sc.logPath(rank), int64(rec.start+(rec.end-rec.start)/2))
		}
	}
	return fmt.Errorf("checkpoint: rank %d has no record for iteration %d in scope %s", rank, iter, sc.name)
}
