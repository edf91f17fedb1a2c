package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// openStore opens a FileStore at path and closes it when the test ends
// (a second Close after an explicit one only returns an error).
func openStore(t *testing.T, path string) *FileStore {
	t.Helper()
	st, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func openLog(t *testing.T, st Store) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(st)
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

func seqs(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Seq
	}
	return out
}

func allZero(p []byte) bool {
	for _, b := range p {
		if b != 0 {
			return false
		}
	}
	return true
}

// TestFileStoreResetHidesStaleFrames writes ten equal-size records,
// truncates, and lets a fresh Log — seq clock restarted at 0, as after a
// reopen with no Advance — write three over the start of the old span.
// A reset that only rewound the offset would let the next Open decode
// on into old frames 4..10, which have the same size and higher seqs;
// the zeroed span must stop decoding after the three new records.
func TestFileStoreResetHidesStaleFrames(t *testing.T) {
	payload := bytes.Repeat([]byte{0xab}, 32)
	for _, reopenFile := range []bool{false, true} {
		path := filepath.Join(t.TempDir(), "wal")
		st := openStore(t, path)
		l, _ := openLog(t, st)
		for i := 0; i < 10; i++ {
			appendSynced(t, l, uint64(i), payload)
		}
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		if reopenFile {
			st.Close()
			st = openStore(t, path)
		}
		fresh, recs := openLog(t, st)
		if len(recs) != 0 {
			t.Fatalf("reopen=%v: truncated journal decodes %d records", reopenFile, len(recs))
		}
		for i := 0; i < 3; i++ {
			appendSynced(t, fresh, uint64(100+i), payload)
		}
		st.Close()
		_, recs = openLog(t, openStore(t, path))
		if len(recs) != 3 || recs[0].Seq != 1 || recs[2].Seq != 3 || recs[2].Addr != 102 {
			t.Fatalf("reopen=%v: want the 3 fresh records, decoded seqs %v", reopenFile, seqs(recs))
		}
	}
}

// TestFileStoreTornReset models death inside Reset: the zeros reached
// only part of the used span, in any page order. Whatever frames survive
// were written before the reset, so every record Open decodes has a seq
// no newer than the last pre-reset one, which the checkpoint the reset
// followed already covers. Records appended after recovery (the Service
// advances the clock to the checkpoint's seq) are exactly those past it.
func TestFileStoreTornReset(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5a}, 40)
	frame := len(AppendFrame(nil, Record{Payload: payload}))
	const n = 10
	used := n * frame
	tears := [][2]int{
		{0, 1}, {0, frame - 1}, {0, frame}, {0, 3*frame + 5}, {0, used - 1},
		{4 * frame, used}, {2*frame + 3, 6 * frame}, {used - 1, used},
	}
	for _, tear := range tears {
		path := filepath.Join(t.TempDir(), "wal")
		st := openStore(t, path)
		l, _ := openLog(t, st)
		for i := 0; i < n; i++ {
			appendSynced(t, l, uint64(i), payload)
		}
		last := l.LastSeq()
		st.Close()

		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(make([]byte, tear[1]-tear[0]), int64(tear[0])); err != nil {
			t.Fatal(err)
		}
		f.Close()

		st = openStore(t, path)
		l, recs := openLog(t, st)
		for _, r := range recs {
			if r.Seq > last {
				t.Fatalf("tear %v: decoded seq %d past the pre-reset last %d", tear, r.Seq, last)
			}
		}
		if tear[0] == 0 && len(recs) != 0 {
			t.Fatalf("tear %v: zeroed prefix still decodes %d records", tear, len(recs))
		}
		l.Advance(last)
		appendSynced(t, l, 200, payload)
		appendSynced(t, l, 201, payload)
		st.Close()
		_, after := openLog(t, openStore(t, path))
		var fresh []Record
		for _, r := range after {
			if r.Seq > last {
				fresh = append(fresh, r)
			}
		}
		if len(after) != len(recs)+2 || len(fresh) != 2 || fresh[0].Addr != 200 || fresh[1].Addr != 201 {
			t.Fatalf("tear %v: after recovery want %d stale + 2 fresh records, got seqs %v", tear, len(recs), seqs(after))
		}
	}
}

// tornFile fails the next WriteAt after only half of it reached the
// file, as a full disk or an I/O error part-way through a write would.
type tornFile struct {
	file
	fail bool
}

func (f *tornFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fail {
		f.fail = false
		n, _ := f.file.WriteAt(p[:len(p)/2], off)
		return n, errDisk
	}
	return f.file.WriteAt(p, off)
}

// TestFileStoreResetZeroesFailedWrite pins the high-water mark: bytes a
// failed write left past the logical end are not part of the log, and
// the next Reset zeroes them along with everything before.
func TestFileStoreResetZeroesFailedWrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	st := openStore(t, path)
	l, _ := openLog(t, st)
	appendSynced(t, l, 1, []byte("one"))
	appendSynced(t, l, 2, []byte("two"))
	st.f = &tornFile{file: st.f, fail: true}
	if _, err := l.Append(OpWrite, 3, bytes.Repeat([]byte{0xff}, 64)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); !errors.Is(err, errDisk) {
		t.Fatalf("failed write not surfaced: %v", err)
	}
	logical, err := st.Load()
	if err != nil {
		t.Fatal(err)
	}
	if recs, garbage := DecodeAll(logical); len(recs) != 2 || garbage != 0 {
		t.Fatalf("log after failed write: %d records, %d garbage bytes", len(recs), garbage)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(onDisk) <= len(logical) || allZero(onDisk[len(logical):]) {
		t.Fatalf("failed write left nothing past the logical end (%d vs %d bytes)", len(onDisk), len(logical))
	}
	if err := l.Truncate(); err != nil {
		t.Fatal(err)
	}
	reset, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// The mark covers the whole attempted write, not just the half that
	// landed, so the reset may extend the file; it must never shrink it.
	if len(reset) < len(onDisk) || !allZero(reset) {
		t.Fatalf("reset left %d bytes (was %d), all zero: %v", len(reset), len(onDisk), allZero(reset))
	}
	st.Close()
	if _, recs := openLog(t, openStore(t, path)); len(recs) != 0 {
		t.Fatalf("reset journal decodes %d records", len(recs))
	}
}

// TestFileStoreSizeBounded runs 60 checkpoint intervals of varying
// length through one file: it never grows past the longest interval's
// bytes, and after every Reset it holds nothing but zeros.
func TestFileStoreSizeBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, _ := openLog(t, openStore(t, path))
	payload := make([]byte, 24)
	frame := len(AppendFrame(nil, Record{Payload: payload}))
	const maxPerInterval = 9
	for c := 0; c < 60; c++ {
		payload[0] = byte(c)
		for i := 0; i < 1+(c*7)%maxPerInterval; i++ {
			appendSynced(t, l, uint64(i), payload)
		}
		if err := l.Truncate(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > maxPerInterval*frame {
			t.Fatalf("interval %d: file is %d bytes, one interval is at most %d", c, len(data), maxPerInterval*frame)
		}
		if !allZero(data) {
			t.Fatalf("interval %d: bytes survive the reset", c)
		}
	}
}
