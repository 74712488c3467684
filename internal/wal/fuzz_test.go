package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
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
	for _, seed := range segmentSeeds() {
		f.Add(seed)
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
		un := readUnacked(t, l)
		if len(un) != rec.Unacked || len(un) != 0 && rec.Records == 0 {
			t.Fatalf("read back %d unacked records, scan reported %d of %d", len(un), rec.Unacked, rec.Records)
		}
		// Ascending, not strictly: a forged input can carry duplicate
		// seqs with valid CRCs; the writer never does.
		for i := 1; i < len(un); i++ {
			if un[i-1].Seq > un[i].Seq {
				t.Fatalf("unacked not ascending: %d then %d", un[i-1].Seq, un[i].Seq)
			}
		}
		if err := appendOne(l, rec.TailSeq+1, []byte("post-recovery append")); err != nil {
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

// segmentSeeds is FuzzWALSegment's inline corpus: a clean segment, a torn
// one, a CRC-flipped one, an unknown-kind one, raw garbage, boundary
// slices of a valid file, short-bodied frames, and segments whose damage
// or frame headers fall across the scan's read-buffer boundary.
func segmentSeeds() [][]byte {
	seed := validSegmentBytes()
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)-1] ^= 0xFF
	seeds := [][]byte{
		seed,
		seed[:len(seed)-3],
		seed[:segHeaderLen],
		seed[:segHeaderLen+4],
		flipped,
		appendRawFrame(append([]byte(nil), seed...), 200, []byte{1, 2, 3}),
		[]byte("garbage that is not a segment at all"),
		{},
	}
	// Valid-CRC record and watermark frames with bodies shorter than a seq,
	// each followed by a good frame whose bytes a short read would take.
	for _, kind := range []byte{kindRecord, kindWatermark} {
		short := appendRawFrame(append([]byte(nil), seed...), kind, []byte{1, 2, 3})
		seeds = append(seeds, frameRecord(short, 6, []byte("seed-record")))
	}
	// Seqs out of log order, as concurrent appenders leave them, and one
	// seq twice.
	unordered := segmentHeader(1)
	for i, seq := range []uint64{4, 2, 5, 3, 1, 3} {
		unordered = frameRecord(unordered, seq, []byte{'a' + byte(i)})
	}
	seeds = append(seeds, frameWatermark(unordered, 1))
	// A frame header 4 bytes before the read boundary, whole; the same
	// segment torn inside that header; and torn inside its payload, past
	// the boundary.
	straddle := straddleSegment()
	return append(seeds, straddle, straddle[:scanBufSize+2], straddle[:scanBufSize+20])
}

// segmentHeader is the 16-byte header of segment index.
func segmentHeader(index uint64) []byte {
	hdr := append([]byte(nil), segMagic[:]...)
	return binary.BigEndian.AppendUint64(hdr, index)
}

// validSegmentBytes builds a well-formed single-segment log in memory.
func validSegmentBytes() []byte {
	seg := segmentHeader(1)
	for seq := uint64(1); seq <= 5; seq++ {
		seg = frameRecord(seg, seq, []byte("seed-record"))
	}
	return frameWatermark(seg, 2)
}

// straddleSegment is a clean segment whose frame at offset scanBufSize-4
// has its header split by the scan's read-buffer boundary, followed by
// four more records and a watermark.
func straddleSegment() []byte {
	seg := segmentHeader(1)
	rec := bytes.Repeat([]byte("s"), 100)
	frameLen := frameHeaderLen + 9 + len(rec)
	seq := uint64(0)
	for len(seg)+2*frameLen <= scanBufSize-4 {
		seq++
		seg = frameRecord(seg, seq, rec)
	}
	seq++
	seg = frameRecord(seg, seq, make([]byte, scanBufSize-4-len(seg)-frameHeaderLen-9))
	for i := 0; i < 4; i++ {
		seq++
		seg = frameRecord(seg, seq, rec)
	}
	return frameWatermark(seg, 3)
}

// TestStraddleSeedsStraddle holds the three boundary seeds to their
// purpose: a frame starts 4 bytes before the read boundary.
func TestStraddleSeedsStraddle(t *testing.T) {
	seg := straddleSegment()
	off := segHeaderLen
	for off < scanBufSize-4 {
		off += frameHeaderLen + int(binary.BigEndian.Uint32(seg[off:]))
	}
	if off != scanBufSize-4 {
		t.Fatalf("no frame starts at %d: one starts at %d", scanBufSize-4, off)
	}
}

// oversizeSegment is a clean segment with a record frame larger than the
// scan's read buffer between two small ones: the one frame the scan copies
// out instead of checking in place.
func oversizeSegment() []byte {
	seg := frameRecord(segmentHeader(1), 1, []byte("before"))
	seg = frameRecord(seg, 2, bytes.Repeat([]byte("o"), scanBufSize+1000))
	seg = frameRecord(seg, 3, []byte("after"))
	return frameWatermark(seg, 1)
}

// TestScanMatchesWholeBufferReference: the streaming scan and the replay
// cursor recover exactly what the whole-buffer scan they replaced did —
// the Recovered summary, the unacked seqs and payloads, the truncation
// (reported, and on disk), and the ErrCorrupt verdicts — over every
// FuzzWALSegment seed, inline and checked in, and over a frame larger than
// the read buffer: whole, and torn inside its payload.
func TestScanMatchesWholeBufferReference(t *testing.T) {
	seeds := segmentSeeds()
	corpus, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWALSegment", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range corpus {
		seeds = append(seeds, corpusBytes(t, name))
	}
	oversize := oversizeSegment()
	seeds = append(seeds, oversize, oversize[:segHeaderLen+scanBufSize])
	for i, data := range seeds {
		t.Run(fmt.Sprint(i), func(t *testing.T) {
			want, wantUn, wantErr := referenceScan(data)
			dir := t.TempDir()
			path := filepath.Join(dir, "0000000000000001.wal")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, err := Open(Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
			if !errors.Is(err, wantErr) {
				t.Fatalf("Open err %v, reference %v", err, wantErr)
			}
			if err != nil {
				return
			}
			defer l.Close()
			if got != want {
				t.Fatalf("recovered %+v, reference %+v", got, want)
			}
			gotUn := readUnacked(t, l)
			if len(gotUn) != len(wantUn) {
				t.Fatalf("%d unacked records, reference %d", len(gotUn), len(wantUn))
			}
			for k := range gotUn {
				if gotUn[k].Seq != wantUn[k].Seq || !bytes.Equal(gotUn[k].Payload, wantUn[k].Payload) {
					t.Fatalf("unacked %d: seq %d %q, reference seq %d %q", k, gotUn[k].Seq, gotUn[k].Payload, wantUn[k].Seq, wantUn[k].Payload)
				}
			}
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if info.Size() != int64(len(data))-want.TruncatedBytes {
				t.Fatalf("segment is %d bytes after repair, want %d", info.Size(), int64(len(data))-want.TruncatedBytes)
			}
		})
	}
}

// referenceScan is the whole-buffer recovery the streaming scan replaced,
// kept as its oracle: data read whole as the last (only) segment, every
// record copied out, filtered by the final watermark and sorted by seq.
func referenceScan(data []byte) (Recovered, []Record, error) {
	rec := Recovered{Segments: 1}
	if len(data) < segHeaderLen || !bytes.Equal(data[:8], segMagic[:]) {
		return rec, nil, ErrCorrupt
	}
	var all []Record
	off := segHeaderLen
	for {
		frame, fn, ok := referenceFrame(data[off:])
		if fn == 0 {
			break
		}
		if !ok {
			rec.TruncatedBytes = int64(len(data) - off)
			break
		}
		if len(frame) < 9 {
			return rec, nil, ErrCorrupt
		}
		seq := binary.BigEndian.Uint64(frame[1:9])
		switch frame[0] {
		case kindRecord:
			all = append(all, Record{Seq: seq, Payload: frame[9:]})
			rec.Records++
			rec.TailSeq = max(rec.TailSeq, seq)
		case kindWatermark:
			rec.Watermark = max(rec.Watermark, seq)
		default:
			return rec, nil, ErrCorrupt
		}
		off += fn
	}
	var unacked []Record
	for _, r := range all {
		if r.Seq > rec.Watermark {
			unacked = append(unacked, r)
		}
	}
	sort.SliceStable(unacked, func(i, j int) bool { return unacked[i].Seq < unacked[j].Seq })
	rec.Unacked = len(unacked)
	return rec, unacked, nil
}

// referenceFrame is the whole-buffer frame parser: the payload, the frame
// length consumed, and whether the frame is intact (fn == 0: clean end).
func referenceFrame(data []byte) (payload []byte, fn int, ok bool) {
	if len(data) == 0 {
		return nil, 0, true
	}
	if len(data) < frameHeaderLen {
		return nil, len(data), false
	}
	plen := int(binary.BigEndian.Uint32(data[0:4]))
	if plen < 1 || plen > 1<<30 {
		return nil, frameHeaderLen, false
	}
	if len(data) < frameHeaderLen+plen {
		return nil, len(data), false
	}
	payload = data[frameHeaderLen : frameHeaderLen+plen]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(data[4:8]) {
		return nil, frameHeaderLen + plen, false
	}
	return payload, frameHeaderLen + plen, true
}

// corpusBytes reads one checked-in `go test fuzz v1` []byte seed.
func corpusBytes(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a one-value fuzz seed", path)
	}
	quoted, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok {
		t.Fatalf("%s: not a []byte seed", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
