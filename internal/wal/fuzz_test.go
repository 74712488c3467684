package wal

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzWALSegment throws arbitrary bytes at the segment scanner as the
// *last* segment of a log — the position where recovery is most
// permissive (torn tails are repaired, not rejected). The invariants:
// the scanner never panics, never fabricates records (every recovered
// record must have a valid frame in the input), a second recovery of the
// repaired file is clean (truncation reaches a fixed point), and appends
// still work afterwards.
func FuzzWALSegment(f *testing.F) {
	// Seed corpus: a clean segment, a torn one, a CRC-flipped one, an
	// unknown-kind one, raw garbage, and boundary slices of a valid file.
	seed := validSegmentBytes(f)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	f.Add(seed[:segHeaderLen])
	f.Add(seed[:segHeaderLen+4])
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)
	unknown := append([]byte(nil), seed...)
	unknown = appendRawFrame(unknown, 200, []byte{1, 2, 3})
	f.Add(unknown)
	f.Add([]byte("garbage that is not a segment at all"))
	f.Add([]byte{})
	// Valid-CRC record and watermark frames with bodies shorter than a seq,
	// each followed by a good frame whose bytes a short read would take.
	for _, kind := range []byte{kindRecord, kindWatermark} {
		short := appendRawFrame(append([]byte(nil), seed...), kind, []byte{1, 2, 3})
		f.Add(frameRecord(short, 6, []byte("seed-record")))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "0000000000000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		l, rec, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
		if err != nil {
			// Rejection (bad header, unknown kind, ...) is a valid
			// outcome; crashing or mis-parsing is not.
			return
		}
		// Whatever was recovered must also survive a clean second pass.
		un := l.Unacked()
		if len(un) != 0 && rec.Records == 0 {
			t.Fatalf("unacked %d records but scan reported 0", len(un))
		}
		// Ascending, not strictly: a forged input can carry duplicate
		// seqs with valid CRCs; the writer never does.
		for i := 1; i < len(un); i++ {
			if un[i-1].Seq > un[i].Seq {
				t.Fatalf("unacked not ascending: %d then %d", un[i-1].Seq, un[i].Seq)
			}
		}
		if err := l.Append(rec.TailSeq+1, []byte("post-recovery append")); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		l2, rec2, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
		if err != nil {
			t.Fatalf("second Open after repair: %v", err)
		}
		if rec2.TruncatedBytes != 0 {
			t.Fatalf("repair did not reach a fixed point: second scan truncated %d bytes", rec2.TruncatedBytes)
		}
		if rec2.Records != rec.Records+1 {
			t.Fatalf("second scan saw %d records, want %d", rec2.Records, rec.Records+1)
		}
		l2.Close()
	})
}

// validSegmentBytes builds a well-formed single-segment log in memory.
func validSegmentBytes(f *testing.F) []byte {
	f.Helper()
	var buf bytes.Buffer
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], 1)
	buf.Write(hdr[:])
	var frames []byte
	for seq := uint64(1); seq <= 5; seq++ {
		frames = frameRecord(frames, seq, []byte("seed-record"))
	}
	frames = frameWatermark(frames, 2)
	buf.Write(frames)
	return buf.Bytes()
}
