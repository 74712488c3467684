package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// appendOne appends a single record: a batch of one.
func appendOne(l *Log, seq uint64, rec []byte) error {
	return l.AppendBatch(seq, [][]byte{rec})
}

// openT opens a log in dir with small, test-friendly options.
func openT(t *testing.T, dir string, segBytes int64) (*Log, Recovered) {
	t.Helper()
	l, rec, err := Open(Options{Dir: dir, SegmentBytes: segBytes, SyncEvery: -1})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func TestAppendRecoverRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, rec := openT(t, dir, 1<<20)
	if rec.Records != 0 || rec.TailSeq != 0 || rec.Watermark != 0 {
		t.Fatalf("fresh dir recovered %+v, want zeroes", rec)
	}
	for seq := uint64(1); seq <= 100; seq++ {
		if err := appendOne(l, seq, []byte(fmt.Sprintf("rec-%03d", seq))); err != nil {
			t.Fatalf("appendOne(%d): %v", seq, err)
		}
	}
	if err := l.AppendWatermark(40); err != nil {
		t.Fatalf("AppendWatermark: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec2 := openT(t, dir, 1<<20)
	defer l2.Close()
	if rec2.Records != 100 || rec2.TailSeq != 100 || rec2.Watermark != 40 {
		t.Fatalf("recovered %+v, want 100 records, tail 100, watermark 40", rec2)
	}
	if rec2.TruncatedBytes != 0 {
		t.Fatalf("clean log truncated %d bytes", rec2.TruncatedBytes)
	}
	if rec2.Unacked != 60 {
		t.Fatalf("Recovered.Unacked = %d, want 60", rec2.Unacked)
	}
	un := readUnacked(t, l2)
	if len(un) != 60 {
		t.Fatalf("unacked = %d records, want 60 (seqs 41..100)", len(un))
	}
	for i, r := range un {
		wantSeq := uint64(41 + i)
		if r.Seq != wantSeq || string(r.Payload) != fmt.Sprintf("rec-%03d", wantSeq) {
			t.Fatalf("unacked[%d] = seq %d payload %q", i, r.Seq, r.Payload)
		}
	}
	if again := readUnacked(t, l2); len(again) != 0 {
		t.Fatalf("a drained cursor handed out %d more records", len(again))
	}
}

func TestAppendBatchAndConcurrency(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 1<<20)

	// 8 goroutines × 32 batches of 8 records with disjoint seq ranges:
	// every record must survive, group commit must not interleave frames.
	const workers, batches, per = 8, 32, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w*batches*per) + 1
			recs := make([][]byte, per)
			for b := 0; b < batches; b++ {
				first := base + uint64(b*per)
				for i := range recs {
					recs[i] = []byte(fmt.Sprintf("w%d-%d", w, first+uint64(i)))
				}
				if err := l.AppendBatch(first, recs); err != nil {
					t.Errorf("AppendBatch: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := openT(t, dir, 1<<20)
	defer l2.Close()
	want := workers * batches * per
	if rec.Records != want || rec.TailSeq != uint64(want) {
		t.Fatalf("recovered %d records tail %d, want %d", rec.Records, rec.TailSeq, want)
	}
	un := readUnacked(t, l2)
	seen := make(map[uint64]bool, want)
	for _, r := range un {
		if seen[r.Seq] {
			t.Fatalf("duplicate seq %d in recovery", r.Seq)
		}
		seen[r.Seq] = true
	}
	if len(seen) != want {
		t.Fatalf("recovered %d distinct seqs, want %d", len(seen), want)
	}
}

func TestRotationAndPrune(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 4<<10) // minimum segment size: rotate often
	payload := bytes.Repeat([]byte("x"), 200)
	for seq := uint64(1); seq <= 200; seq++ {
		if err := appendOne(l, seq, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	segs := l.Segments()
	if segs < 4 {
		t.Fatalf("Segments() = %d after 200×200B appends at 4KiB, want rotation", segs)
	}

	// Prune below a mid watermark: early segments go, the tail stays.
	removed, err := l.Prune(100)
	if err != nil {
		t.Fatalf("Prune: %v", err)
	}
	if removed == 0 {
		t.Fatalf("Prune(100) removed nothing with %d segments", segs)
	}
	if err := l.AppendWatermark(100); err != nil {
		t.Fatalf("AppendWatermark: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	l2, rec := openT(t, dir, 4<<10)
	defer l2.Close()
	if rec.TailSeq != 200 || rec.Watermark != 100 {
		t.Fatalf("recovered tail %d watermark %d, want 200/100", rec.TailSeq, rec.Watermark)
	}
	un := readUnacked(t, l2)
	if len(un) == 0 || un[0].Seq > 101 || un[len(un)-1].Seq != 200 {
		t.Fatalf("unacked after prune: %d records, first %d last %d", len(un), un[0].Seq, un[len(un)-1].Seq)
	}
}

// TestTornTailTruncated injects the kill -9 artifact: a partial frame at
// the end of the last segment. Recovery must truncate it, keep every
// earlier record, and leave a cleanly appendable log.
func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, 3, 7, 11} {
		t.Run(fmt.Sprintf("cut%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _ := openT(t, dir, 1<<20)
			for seq := uint64(1); seq <= 20; seq++ {
				if err := appendOne(l, seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
					t.Fatalf("Append: %v", err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			seg := lastSegment(t, dir)
			info, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(seg, info.Size()-int64(cut)); err != nil {
				t.Fatal(err)
			}

			l2, rec := openT(t, dir, 1<<20)
			if rec.Records != 19 || rec.TailSeq != 19 {
				t.Fatalf("recovered %d records tail %d after torn tail, want 19/19", rec.Records, rec.TailSeq)
			}
			if rec.TruncatedBytes == 0 {
				t.Fatalf("TruncatedBytes = 0, want > 0")
			}
			// The log must accept appends after repair.
			if err := appendOne(l2, 20, []byte("rec-20-again")); err != nil {
				t.Fatalf("Append after repair: %v", err)
			}
			if err := l2.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			_, rec3 := openT(t, dir, 1<<20)
			if rec3.Records != 20 || rec3.TruncatedBytes != 0 {
				t.Fatalf("third life recovered %+v, want 20 records, clean", rec3)
			}
		})
	}
}

// TestTornTailCorruptCRC flips payload bytes in the final frame — a torn
// write that kept the full length. The CRC scan must drop exactly that
// frame.
func TestTornTailCorruptCRC(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 1<<20)
	for seq := uint64(1); seq <= 10; seq++ {
		if err := appendOne(l, seq, []byte(fmt.Sprintf("rec-%d", seq))); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	seg := lastSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2, rec := openT(t, dir, 1<<20)
	defer l2.Close()
	if rec.Records != 9 || rec.TailSeq != 9 {
		t.Fatalf("recovered %d records tail %d after CRC-bad tail, want 9/9", rec.Records, rec.TailSeq)
	}
}

// TestMidLogCorruptionRejected: damage before the last segment is not a
// torn tail — it means acknowledged records are gone, and Open must fail
// loudly instead of replaying a hole.
func TestMidLogCorruptionRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 4<<10)
	payload := bytes.Repeat([]byte("y"), 200)
	for seq := uint64(1); seq <= 100; seq++ {
		if err := appendOne(l, seq, payload); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Segments() < 2 {
		t.Fatalf("need ≥2 segments for a mid-log wound, got %d", l.Segments())
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	first := firstSegment(t, dir)
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-5] ^= 0xFF
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Open(Options{Dir: dir, SegmentBytes: 4 << 10, SyncEvery: -1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestForeignHeaderRejected: a segment whose header is not ours must be
// refused, not scanned.
func TestForeignHeaderRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "0000000000000001.wal"), []byte("not a wal segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(Options{Dir: dir})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with foreign segment: err = %v, want ErrCorrupt", err)
	}
}

// TestUnknownFrameKindRejected: a valid-CRC frame with an unknown kind is
// version skew, not a torn write — never silently skipped.
func TestUnknownFrameKindRejected(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 1<<20)
	if err := appendOne(l, 1, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	seg := lastSegment(t, dir)
	f, err := os.OpenFile(seg, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	frame := appendRawFrame(nil, 99, binary.BigEndian.AppendUint64(nil, 7))
	if _, err := f.Write(frame); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = Open(Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with unknown frame kind: err = %v, want ErrCorrupt", err)
	}
}

// TestShortFrameBodyRejected: a valid-CRC record or watermark frame whose
// body is shorter than its 8-byte seq is ErrCorrupt, as an unknown kind
// is — not a panic on the record's length, and not a watermark read from
// the next frame's bytes that retires records never replayed.
func TestShortFrameBodyRejected(t *testing.T) {
	for _, kind := range []byte{kindRecord, kindWatermark} {
		dir := t.TempDir()
		l, _ := openT(t, dir, 1<<20)
		if err := appendOne(l, 1, []byte("ok")); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(lastSegment(t, dir), os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		forged := appendRawFrame(nil, kind, []byte{1, 2, 3})
		forged = frameRecord(forged, 2, []byte("after the forged frame"))
		if _, err := f.Write(forged); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, _, err = Open(Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with a 3-byte body of kind %d: err = %v, want ErrCorrupt", kind, err)
		}
	}
}

func TestClosedLogRejectsAppends(t *testing.T) {
	dir := t.TempDir()
	l, _ := openT(t, dir, 1<<20)
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := appendOne(l, 1, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if err := l.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
}

func TestTracker(t *testing.T) {
	tr := NewTracker(0)
	ack1 := tr.Deliver(10) // [1,10]
	ack2 := tr.Deliver(15) // [11,15]
	ack3 := tr.Deliver(22) // [16,22]
	if w := tr.Watermark(); w != 0 {
		t.Fatalf("watermark before any completion = %d", w)
	}
	ack2() // out of order: nothing contiguous yet
	if w := tr.Watermark(); w != 0 {
		t.Fatalf("watermark after middle completion = %d, want 0", w)
	}
	ack1()
	if w := tr.Watermark(); w != 15 {
		t.Fatalf("watermark = %d, want 15 (ranges 1 and 2 done)", w)
	}
	ack3()
	if w := tr.Watermark(); w != 22 {
		t.Fatalf("watermark = %d, want 22", w)
	}
	if p := len(tr.pending); p != 0 {
		t.Fatalf("pending = %d, want 0", p)
	}
	// Recovered start: watermark resumes past the prior life.
	tr2 := NewTracker(100)
	ack := tr2.Deliver(110)
	ack()
	if w := tr2.Watermark(); w != 110 {
		t.Fatalf("recovered tracker watermark = %d, want 110", w)
	}
	// Stale/empty delivery is a no-op.
	tr2.Deliver(110)()
	if w := tr2.Watermark(); w != 110 {
		t.Fatalf("stale delivery moved watermark to %d", w)
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker(0)
	const ranges = 200
	acks := make([]func(), ranges)
	for i := 0; i < ranges; i++ {
		acks[i] = tr.Deliver(uint64((i + 1) * 10))
	}
	var wg sync.WaitGroup
	for i := range acks {
		wg.Add(1)
		go func(f func()) { defer wg.Done(); f() }(acks[i])
	}
	wg.Wait()
	if w := tr.Watermark(); w != ranges*10 {
		t.Fatalf("watermark = %d, want %d", w, ranges*10)
	}
}

func TestCheckpointRoundtrip(t *testing.T) {
	dir := t.TempDir()
	if _, ok, err := LoadCheckpoint(dir); err != nil || ok {
		t.Fatalf("LoadCheckpoint on empty dir: ok=%v err=%v", ok, err)
	}
	want := Checkpoint{
		Alloc:      map[string]int{"parse": 2, "count": 5},
		Slots:      7,
		Rounds:     42,
		CooldownMS: 1500,
	}
	if err := SaveCheckpoint(dir, want); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	got, ok, err := LoadCheckpoint(dir)
	if err != nil || !ok {
		t.Fatalf("LoadCheckpoint: ok=%v err=%v", ok, err)
	}
	if got.Slots != want.Slots || got.Alloc["count"] != 5 || got.Rounds != 42 || got.CooldownMS != 1500 {
		t.Fatalf("LoadCheckpoint = %+v, want %+v", got, want)
	}
	// Corrupt checkpoint must error, not cold-start.
	if err := os.WriteFile(filepath.Join(dir, checkpointFile), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("LoadCheckpoint on corrupt file: nil error")
	}
}

func TestSyncEveryCadence(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	// With an hour cadence the append path must still write(2) (the
	// durability contract for kill -9) — verified by recovery, since
	// Close flushes but a second process sees only written bytes.
	for seq := uint64(1); seq <= 5; seq++ {
		if err := appendOne(l, seq, []byte("z")); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec := openT(t, dir, 1<<20)
	if rec.Records != 5 {
		t.Fatalf("recovered %d records, want 5", rec.Records)
	}
}

// readUnacked drains l's replay cursor through an odd-sized window, so
// calls end mid-span, each payload in an allocation of its own.
func readUnacked(t testing.TB, l *Log) []Record {
	t.Helper()
	var out []Record
	buf := make([]Record, 7)
	for {
		n, err := l.ReadUnacked(buf, func(n int) []byte { return make([]byte, n) })
		if err != nil {
			t.Fatalf("ReadUnacked: %v", err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// lastSegment returns the highest-indexed segment file in dir.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return names[len(names)-1]
}

// firstSegment returns the lowest-indexed segment file in dir.
func firstSegment(t *testing.T, dir string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments in %s (err %v)", dir, err)
	}
	return names[0]
}

// appendRawFrame frames an arbitrary kind+body with a valid CRC — test
// helper for forging frames recovery should reject.
func appendRawFrame(dst []byte, kind byte, body []byte) []byte {
	payloadLen := 1 + len(body)
	dst = growFrame(dst, payloadLen)
	p := dst[len(dst)-payloadLen:]
	p[0] = kind
	copy(p[1:], body)
	sealFrame(dst, payloadLen)
	return dst
}
