// Package wal is the durable logical write-ahead journal under the
// forkoram Service layer. Every mutating operation is appended as a
// CRC-framed record {seq, op, addr, payload} and made durable (Sync)
// BEFORE it is applied to the ORAM device; after a crash, replaying the
// journal over the newest checkpoint reconstructs every acknowledged
// write. The journal is logical (addresses and payloads, not bucket
// ciphertexts), so replay goes through the full ORAM stack and the
// oblivious-access guarantees are preserved.
//
// Durability is abstracted behind Store, an append-only byte log with an
// explicit fsync-style barrier:
//
//   - MemStore keeps the log in memory and models crash semantics
//     exactly: bytes appended but not yet Synced are lost on Crash,
//     except for an arbitrary prefix that may have reached the medium
//     (a torn tail). The chaos harness kills services at every point of
//     the write path through this hook.
//   - FileStore is the real thing: a file written in place with Sync
//     mapped to fsync. Reset zeroes the used span instead of truncating
//     the file, so the file keeps its high-water size across
//     checkpoints.
//
// Replay tolerates a torn tail by construction: records are framed with
// a length and a CRC32, decoding stops at the first frame that fails
// either check, and Open durably truncates the garbage bytes off the
// tail so they cannot shadow records appended later. Truncation only
// ever removes bytes that failed decoding, so no crash anywhere inside
// Open can lose an acknowledged record: either the truncation persisted
// (garbage gone) or it did not (the next Open truncates again). A
// record is considered durable only if every byte of its frame
// survived — exactly the contract a caller gets from appending then
// syncing.
//
// A store failure mid-append is latched: the bytes may have partially
// reached the log, and a later record appended behind them would be
// unreachable by replay (decoding stops at the first bad frame, and
// there is no resync point). A broken Log therefore refuses every
// further Append/Sync with ErrBroken until Truncate durably empties the
// store — so no record can ever be acknowledged behind a bad frame.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// ErrBroken marks a Log whose store failed mid-append or mid-sync: the
// log may hold a partially written frame, and any record appended after
// it would be stranded behind the garbage (replay stops at the first
// bad frame). Append and Sync refuse with an error wrapping ErrBroken
// until Truncate durably empties the store.
var ErrBroken = errors.New("wal: journal broken by a prior store failure")

// Record is one journal entry. Seq is assigned by the Log, strictly
// increasing across the Log's lifetime (it does not reset on Truncate,
// so a record's seq can always be compared against a checkpoint's).
type Record struct {
	Seq     uint64
	Op      uint8
	Addr    uint64
	Payload []byte
}

// Journal operations. The op byte is stored per record so the format can
// grow (deletes, range ops, tombstones) without a version bump.
//
// OpWrite is the only op that appears in a shard Service's journal. The
// OpPolicy/OpReshard* family lives exclusively in the sharded router's
// own journal (ShardedServiceConfig.RouterWAL) and records routing-
// policy transitions: replaying them reconstructs the exact dual-routing
// state — old policy, new policy, migration watermark — at any crash
// point of an online reshard.
const (
	// OpWrite sets Addr's block to Payload.
	OpWrite uint8 = 1
	// OpPolicy anchors the router journal: Payload is the encoded
	// RoutingPolicy currently in force. Written once when the journal is
	// fresh; any later OpPolicy record resets the routing state machine.
	OpPolicy uint8 = 2
	// OpReshardBegin opens a migration epoch: Payload encodes the donor
	// policy followed by the recipient policy (see forkoram.ReshardPlan).
	OpReshardBegin uint8 = 3
	// OpReshardAdvance commits a migration watermark: every global
	// address below Addr has been durably copied to the recipient shard
	// set and is henceforth routed by the new policy.
	OpReshardAdvance uint8 = 4
	// OpReshardCutover commits the migration: the recipient policy is the
	// routing policy. Durable cutover makes the new shard set
	// authoritative for the whole address space.
	OpReshardCutover uint8 = 5
	// OpReshardFinal records that the donor shard set has been retired
	// (services closed, journal stores truncated) after a cutover.
	OpReshardFinal uint8 = 6
)

// Frame layout (little-endian):
//
//	length u32   — bytes after the 8-byte frame header
//	crc    u32   — CRC-32 (IEEE) over those bytes
//	seq u64 | op u8 | addr u64 | payload [length-17]byte
const (
	frameHeader = 8
	recFixed    = 17
)

// AppendFrame appends the framed encoding of r to dst and returns the
// extended slice.
func AppendFrame(dst []byte, r Record) []byte {
	n := recFixed + len(r.Payload)
	off := len(dst)
	dst = append(dst, make([]byte, frameHeader+n)...)
	le := binary.LittleEndian
	le.PutUint32(dst[off:], uint32(n))
	body := dst[off+frameHeader:]
	le.PutUint64(body, r.Seq)
	body[8] = r.Op
	le.PutUint64(body[9:], r.Addr)
	copy(body[recFixed:], r.Payload)
	le.PutUint32(dst[off+4:], crc32.ChecksumIEEE(body))
	return dst
}

// Decode parses one frame from the head of data, returning the record
// and the bytes consumed. An incomplete, corrupt, or implausible frame
// returns an error; the caller treats everything from that offset on as
// a torn tail.
func Decode(data []byte) (Record, int, error) {
	var r Record
	if len(data) < frameHeader {
		return r, 0, fmt.Errorf("wal: short frame header (%d bytes)", len(data))
	}
	le := binary.LittleEndian
	n := int(le.Uint32(data))
	if n < recFixed {
		return r, 0, fmt.Errorf("wal: frame length %d below record minimum", n)
	}
	if len(data) < frameHeader+n {
		return r, 0, fmt.Errorf("wal: truncated frame (%d of %d bytes)", len(data)-frameHeader, n)
	}
	body := data[frameHeader : frameHeader+n]
	if got, want := crc32.ChecksumIEEE(body), le.Uint32(data[4:]); got != want {
		return r, 0, fmt.Errorf("wal: frame CRC mismatch (%08x != %08x)", got, want)
	}
	r.Seq = le.Uint64(body)
	r.Op = body[8]
	r.Addr = le.Uint64(body[9:])
	r.Payload = append([]byte(nil), body[recFixed:]...)
	return r, frameHeader + n, nil
}

// DecodeAll parses records from the head of data until the bytes run out
// or a frame fails its length or CRC check. garbage is the count of
// trailing bytes not decoded — a torn tail from a crash mid-sync, or
// anything written after one (framing has no resync point, so the first
// bad frame ends the journal). Records must carry strictly increasing
// sequence numbers; a regression is treated like a bad frame.
func DecodeAll(data []byte) (recs []Record, garbage int) {
	off := 0
	var last uint64
	for off < len(data) {
		r, n, err := Decode(data[off:])
		if err != nil {
			return recs, len(data) - off
		}
		if len(recs) > 0 && r.Seq <= last {
			return recs, len(data) - off
		}
		recs = append(recs, r)
		last = r.Seq
		off += n
	}
	return recs, 0
}

// Store is the durability substrate of a Log: an append-only byte log
// with an explicit barrier. Append may buffer; only bytes covered by a
// returned Sync are guaranteed to survive a crash (a crashed append may
// still leave an arbitrary prefix behind — the torn tail Decode guards
// against).
type Store interface {
	// Append adds p to the log (possibly buffered).
	Append(p []byte) error
	// Sync is the durability barrier: when it returns, every byte
	// appended so far survives a crash.
	Sync() error
	// Load returns the log's surviving contents from the beginning.
	Load() ([]byte, error)
	// Reset durably discards the whole log (checkpoint truncation).
	Reset() error
	// TruncateTail durably discards every byte at offset >= keep,
	// leaving the first keep bytes untouched. Open uses it to drop a
	// torn tail: because only bytes that failed decoding are ever
	// discarded, the operation cannot lose an acknowledged record no
	// matter where a crash lands relative to its durability barrier.
	TruncateTail(keep int) error
}

// MemStore is an in-memory Store with explicit crash semantics, used by
// tests and the chaos harness. It is not safe for concurrent use (the
// Service serializes all journal access on its worker goroutine).
type MemStore struct {
	durable []byte
	buffer  []byte

	// CrashTruncate, when set, is consulted by TruncateTail before the
	// truncation is applied — the chaos-harness hook modelling process
	// death between a FileStore's tail-zeroing write and its fsync. A
	// torn zeroing leaves only bytes that already failed decoding, so
	// "persisted or not" covers every outcome. A non-nil die
	// kills the operation: TruncateTail returns die without touching the
	// buffer-side state, and the truncation has reached the medium iff
	// persist is true.
	CrashTruncate func(keep int) (die error, persist bool)
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Append implements Store.
func (m *MemStore) Append(p []byte) error {
	m.buffer = append(m.buffer, p...)
	return nil
}

// Sync implements Store.
func (m *MemStore) Sync() error {
	m.durable = append(m.durable, m.buffer...)
	m.buffer = m.buffer[:0]
	return nil
}

// Load implements Store.
func (m *MemStore) Load() ([]byte, error) {
	return append([]byte(nil), m.durable...), nil
}

// Reset implements Store.
func (m *MemStore) Reset() error {
	m.durable = m.durable[:0]
	m.buffer = m.buffer[:0]
	return nil
}

// TruncateTail implements Store. Only called by Open (no bytes are
// buffered yet), so it operates on the durable contents alone.
func (m *MemStore) TruncateTail(keep int) error {
	if keep > len(m.durable) {
		keep = len(m.durable)
	}
	if m.CrashTruncate != nil {
		if die, persist := m.CrashTruncate(keep); die != nil {
			if persist {
				m.durable = m.durable[:keep]
			}
			m.buffer = m.buffer[:0]
			return die
		}
	}
	m.durable = m.durable[:keep]
	return nil
}

// Buffered returns the number of appended-but-unsynced bytes — the most
// that can be torn away (or partially persisted) by a Crash.
func (m *MemStore) Buffered() int { return len(m.buffer) }

// Crash models process death: unsynced bytes vanish, except the first
// tear bytes, which had already reached the medium (a torn tail for the
// decoder to reject). tear is clamped to the buffered length.
func (m *MemStore) Crash(tear int) {
	if tear > len(m.buffer) {
		tear = len(m.buffer)
	}
	if tear > 0 {
		m.durable = append(m.durable, m.buffer[:tear]...)
	}
	m.buffer = m.buffer[:0]
}

// Clone deep-copies the store — a test hook for replaying recovery twice
// from identical surviving state.
func (m *MemStore) Clone() *MemStore {
	return &MemStore{
		durable: append([]byte(nil), m.durable...),
		buffer:  append([]byte(nil), m.buffer...),
	}
}

// FileStore is a file-backed Store whose Sync barrier is fsync. One Log
// per file; the caller owns the path.
//
// The file is reused in place, not appended to. The store tracks a
// logical end (the log is bytes [0, end)) and a high-water mark past
// which the file has never been written, counting the bytes of a failed
// write too. Sync writes at the logical end; Reset and TruncateTail
// overwrite the discarded span up to the high-water mark with zeros and
// fsync, so the file keeps its high-water size — one checkpoint
// interval's worth of frames — instead of being truncated. On ext4 with
// online discard an ftruncate plus fsync costs tens to hundreds of
// milliseconds, against tens of microseconds to overwrite the same
// bytes.
//
// Zeros end decoding the way a torn tail does (a zero length field is
// below the record minimum). Zeroing the whole used span rather than
// rewinding the offset keeps every frame written before a Reset
// undecodable: frames of one block size all have the same length, and
// after a reopen a Log's seq clock may restart below the old frames', so
// a rewound file would let DecodeAll run from fresh frames on into
// stale ones that carry higher seqs.
//
// Appends are buffered in a reusable scratch slice and flushed by Sync
// with a single write followed by fsync, so a group of frames costs one
// syscall pair no matter how many records it spans. The bytes that reach
// the file are identical to writing each frame individually — only the
// syscall count changes — so crash and torn-tail semantics are
// unchanged.
type FileStore struct {
	f    file
	buf  []byte
	end  int64 // logical end: the log is bytes [0, end)
	high int64 // high-water mark: nothing at or past it was ever written
}

// file is the part of *os.File a FileStore uses; tests substitute one
// whose writes fail part-way.
type file interface {
	io.ReaderAt
	io.WriterAt
	Sync() error
	Close() error
}

// zeroChunk is the source of the zeros Reset and TruncateTail write.
var zeroChunk [64 << 10]byte

// OpenFile opens (creating if needed) a file-backed store at path. The
// path is resolved to an absolute one immediately, so a later working-
// directory change cannot redirect the store, and the parent directory
// is fsynced so the file's very existence survives a crash right after
// creation.
func OpenFile(path string) (*FileStore, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	f, err := os.OpenFile(abs, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: stat %s: %w", abs, err)
	}
	dir, err := os.Open(filepath.Dir(abs))
	if err == nil {
		err = dir.Sync()
		dir.Close()
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: sync parent dir of %s: %w", abs, err)
	}
	// Until Open has decoded the file, all of it is the log: a zeroed
	// tail left by earlier resets decodes as garbage and is trimmed there.
	return &FileStore{f: f, end: info.Size(), high: info.Size()}, nil
}

// Append implements Store: it only buffers. The bytes reach the file at
// the next Sync, as one contiguous write.
func (s *FileStore) Append(p []byte) error {
	s.buf = append(s.buf, p...)
	return nil
}

// Sync implements Store: one write at the logical end for everything
// buffered since the last barrier, then fsync. The buffer is consumed
// either way. A failed write leaves the logical end where it was, but
// the file may now hold a partial frame past it: the high-water mark
// covers those bytes so the next Reset zeroes them, and until then the
// Log's broken latch refuses every record that could land behind them.
func (s *FileStore) Sync() error {
	if len(s.buf) > 0 {
		s.high = max(s.high, s.end+int64(len(s.buf)))
		_, err := s.f.WriteAt(s.buf, s.end)
		if err == nil {
			s.end += int64(len(s.buf))
		}
		s.buf = s.buf[:0]
		if err != nil {
			return err
		}
	}
	return s.f.Sync()
}

// Load implements Store: the bytes [0, logical end). It reads through
// the held fd (not by path), so it always sees this store's file
// regardless of renames or working-directory changes since open.
// Buffered (unsynced) bytes are not part of the surviving contents,
// matching MemStore's crash model.
func (s *FileStore) Load() ([]byte, error) {
	data := make([]byte, s.end)
	if _, err := s.f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	return data, nil
}

// Reset implements Store as TruncateTail(0): it overwrites [0,
// high-water) with zeros and fsyncs, leaving the file at its high-water
// size. Buffered bytes are discarded.
func (s *FileStore) Reset() error { return s.TruncateTail(0) }

// TruncateTail implements Store: the logical end moves back to keep and
// [keep, high-water) is overwritten with zeros and fsynced, so garbage
// bytes can never shadow later records. The end moves before the first
// zero is written: after a zeroing that fails part-way, appends still
// land at keep, ahead of whatever old frames survived, and every one of
// those carries a seq the Log has already handed out. Buffered bytes are
// discarded (Open, the only other caller, has buffered nothing yet).
func (s *FileStore) TruncateTail(keep int) error {
	s.buf = s.buf[:0]
	s.end = min(s.end, int64(keep))
	for off := s.end; off < s.high; {
		n := min(s.high-off, int64(len(zeroChunk)))
		if _, err := s.f.WriteAt(zeroChunk[:n], off); err != nil {
			return err
		}
		off += n
	}
	return s.f.Sync()
}

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

var (
	_ Store = (*MemStore)(nil)
	_ Store = (*FileStore)(nil)
)

// Log is the journal proper: sequence assignment, framing, and
// torn-tail-tolerant recovery over a Store. Not safe for concurrent use.
type Log struct {
	store    Store
	seq      uint64
	unsynced int
	appended uint64
	broken   error  // first store Append/Sync failure; latches the log
	frameBuf []byte // reusable framing scratch for Append/AppendGroup
}

// Open builds a Log over a store's surviving contents and returns the
// durable records for the caller to replay. A torn tail (crash between
// Append and the completion of Sync) is dropped by durably truncating
// it off, so later appends are not shadowed by the garbage bytes.
func Open(store Store) (*Log, []Record, error) {
	data, err := store.Load()
	if err != nil {
		return nil, nil, fmt.Errorf("wal: load: %w", err)
	}
	recs, garbage := DecodeAll(data)
	l := &Log{store: store}
	if len(recs) > 0 {
		l.seq = recs[len(recs)-1].Seq
	}
	if garbage > 0 {
		// Drop exactly the bytes that failed decoding; the valid prefix is
		// never rewritten, so there is no point in this path — crash
		// included — where an acknowledged record exists only in memory. If
		// the truncation is torn away by a crash, the garbage survives and
		// the next Open truncates it again.
		if err := store.TruncateTail(len(data) - garbage); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	return l, recs, nil
}

// Append frames a record with the next sequence number and buffers it in
// the store. The record is NOT durable until Sync returns. A store
// failure latches the log broken (see ErrBroken): the failed bytes may
// sit partially in the log, and replay would never see past them, so
// accepting more records would silently strand every one of them.
func (l *Log) Append(op uint8, addr uint64, payload []byte) (uint64, error) {
	if l.broken != nil {
		return 0, fmt.Errorf("wal: append: %w (cause: %v)", ErrBroken, l.broken)
	}
	l.frameBuf = AppendFrame(l.frameBuf[:0], Record{Seq: l.seq + 1, Op: op, Addr: addr, Payload: payload})
	if err := l.store.Append(l.frameBuf); err != nil {
		l.broken = err
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	l.seq++
	l.unsynced++
	l.appended++
	return l.seq, nil
}

// AppendGroup frames a batch of records as one contiguous byte run and
// hands it to the store in a single Append call — the group-commit fast
// path. Sequence numbers are assigned in order into recs[i].Seq; Op,
// Addr, and Payload must be filled in by the caller. Like Append, the
// records are NOT durable until Sync returns, and a store failure
// latches the log broken without advancing the sequence clock (none of
// the group's records exist as far as replay is concerned — decoding
// stops at the first bad frame).
func (l *Log) AppendGroup(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if l.broken != nil {
		return fmt.Errorf("wal: append group: %w (cause: %v)", ErrBroken, l.broken)
	}
	buf := l.frameBuf[:0]
	for i := range recs {
		recs[i].Seq = l.seq + 1 + uint64(i)
		buf = AppendFrame(buf, recs[i])
	}
	l.frameBuf = buf
	if err := l.store.Append(buf); err != nil {
		l.broken = err
		return fmt.Errorf("wal: append group: %w", err)
	}
	l.seq += uint64(len(recs))
	l.unsynced += len(recs)
	l.appended += uint64(len(recs))
	return nil
}

// Sync is the durability barrier for every record appended so far. A
// failed barrier also latches the log broken — after a failed fsync the
// kernel may have dropped dirty pages anywhere in the unsynced span, so
// the log's tail is as suspect as after a failed write.
func (l *Log) Sync() error {
	if l.broken != nil {
		return fmt.Errorf("wal: sync: %w (cause: %v)", ErrBroken, l.broken)
	}
	if err := l.store.Sync(); err != nil {
		l.broken = err
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.unsynced = 0
	return nil
}

// Truncate durably discards every record. Called only after a checkpoint
// covering them is itself durable. Sequence numbering continues — seq is
// the global operation clock, not a file offset. A successful Truncate
// clears a broken latch: the suspect bytes are durably gone, so the
// store is a clean journal again.
func (l *Log) Truncate() error {
	if err := l.store.Reset(); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	l.unsynced = 0
	l.broken = nil
	return nil
}

// Broken returns the store failure that latched the log broken, or nil.
func (l *Log) Broken() error { return l.broken }

// LastSeq returns the sequence number of the most recently appended
// record (0 if none ever).
func (l *Log) LastSeq() uint64 { return l.seq }

// Advance raises the sequence clock to at least seq. Used after recovery
// so that new records always outnumber the restored checkpoint even when
// the journal itself was empty (truncated at that checkpoint).
func (l *Log) Advance(seq uint64) {
	if seq > l.seq {
		l.seq = seq
	}
}

// Appended returns the number of records appended over this Log's
// lifetime (stats hook).
func (l *Log) Appended() uint64 { return l.appended }
