// Recovery: the boot-time scan that turns surviving segment files back
// into log state. The scan walks segments in index order, CRC-verifies
// every frame, and classifies damage by position — a bad or short frame
// at the tail of the *last* segment is the expected kill -9 artifact (a
// torn write(2)) and is truncated away; anything earlier means an
// acknowledged record may be gone and surfaces as ErrCorrupt instead of
// being papered over.

package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// recover scans l.opts.Dir and populates segments, tailSeq, watermark and
// the unacked record set. Called from Open before any appends.
func (l *Log) recover() (Recovered, error) {
	var rec Recovered
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, "*.wal"))
	if err != nil {
		return rec, err
	}
	sort.Strings(names)

	// Collect every record during the scan, then filter by the *final*
	// watermark: a watermark frame retires records appended before it in
	// any earlier segment. Retention (Prune) bounds how much this holds.
	var records []Record
	for i, name := range names {
		last := i == len(names)-1
		seg, n, trunc, err := l.scanSegment(name, last, &records)
		if err != nil {
			return rec, err
		}
		l.segments = append(l.segments, seg)
		rec.Records += n
		rec.TruncatedBytes += trunc
	}
	rec.Segments = len(names)
	rec.TailSeq = l.tailSeq
	rec.Watermark = l.watermark

	l.unacked = records[:0]
	for _, r := range records {
		if r.Seq > l.watermark {
			l.unacked = append(l.unacked, r)
		}
	}
	sort.Slice(l.unacked, func(i, j int) bool { return l.unacked[i].Seq < l.unacked[j].Seq })
	return rec, nil
}

// scanSegment reads one segment file front to back. For the last segment
// a torn tail is truncated in place; for earlier segments any damage is
// ErrCorrupt. It returns the segment descriptor (maxSeq filled in), the
// record count, and the truncated byte count.
func (l *Log) scanSegment(path string, last bool, records *[]Record) (segment, int, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return segment{}, 0, 0, err
	}
	defer f.Close()

	data, err := io.ReadAll(f)
	if err != nil {
		return segment{}, 0, 0, err
	}
	if len(data) < segHeaderLen || !bytes.Equal(data[:8], segMagic[:]) {
		return segment{}, 0, 0, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, filepath.Base(path))
	}
	index := binary.BigEndian.Uint64(data[8:16])
	seg := segment{index: index, path: path}

	off := int64(segHeaderLen)
	count := 0
	for {
		frame, fn, ok := nextFrame(data[off:])
		if fn == 0 {
			break // clean end of segment
		}
		if !ok {
			if !last {
				return seg, count, 0, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, filepath.Base(path), off)
			}
			// Torn tail: cut the file back to the last good frame so the
			// file is clean evidence for any later scan.
			trunc := int64(len(data)) - off
			if err := f.Truncate(off); err != nil {
				return seg, count, trunc, err
			}
			return seg, count, trunc, nil
		}
		// Both kinds carry a seq after the kind byte. A shorter body behind
		// a valid CRC is forged or skewed, not torn — like an unknown kind.
		if len(frame) < 9 {
			return seg, count, 0, fmt.Errorf("%w: %s: %d-byte frame of kind %d at offset %d", ErrCorrupt, filepath.Base(path), len(frame), frame[0], off)
		}
		switch frame[0] {
		case kindRecord:
			seq := binary.BigEndian.Uint64(frame[1:9])
			payload := make([]byte, len(frame)-9)
			copy(payload, frame[9:])
			*records = append(*records, Record{Seq: seq, Payload: payload})
			if seq > l.tailSeq {
				l.tailSeq = seq
			}
			if seq > seg.maxSeq {
				seg.maxSeq = seq
			}
			count++
		case kindWatermark:
			if w := binary.BigEndian.Uint64(frame[1:9]); w > l.watermark {
				l.watermark = w
			}
		default:
			// An unknown kind with a valid CRC is a version skew or a
			// deliberate corruption, not a torn write — never skip it.
			return seg, count, 0, fmt.Errorf("%w: %s: unknown frame kind %d at offset %d", ErrCorrupt, filepath.Base(path), frame[0], off)
		}
		off += int64(fn)
	}
	return seg, count, 0, nil
}

// nextFrame parses one frame from the front of data. It returns the
// payload, the total frame length consumed, and whether the frame is
// intact. fn == 0 means a clean end (no bytes left); ok == false with
// fn > 0 means damage (short header, short payload, CRC mismatch, or an
// implausible length).
func nextFrame(data []byte) (payload []byte, fn int, ok bool) {
	if len(data) == 0 {
		return nil, 0, true
	}
	if len(data) < frameHeaderLen {
		return nil, len(data), false
	}
	plen := int(binary.BigEndian.Uint32(data[0:4]))
	// A frame's payload is at least the kind byte; an absurd length is
	// damage, not a giant record (appends cap well below this).
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
