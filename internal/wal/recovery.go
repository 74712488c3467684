// Recovery: the boot-time scan that turns surviving segment files back
// into log state. The scan walks segments in index order, CRC-verifies
// every frame, and classifies damage by position — a bad or short frame
// at the tail of the *last* segment is the expected kill -9 artifact (a
// torn write(2)) and is truncated away; anything earlier means an
// acknowledged record may be gone and surfaces as ErrCorrupt instead of
// being papered over.
//
// The scan keeps an index, not the log: each segment streams through one
// fixed read buffer, and a record above the watermark leaves behind only
// where its frame lies (recordLoc, 24 bytes). The replay cursor
// (ReadUnacked) reads the payloads back from the files, in seq order, a
// span of adjacent frames per pread, re-verifying each frame's CRC.

package wal

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
)

// scanBufSize is the scan's read buffer, and spanMax the most bytes one
// replay pread covers (a frame larger than it is read alone).
const (
	scanBufSize = 64 << 10
	spanMax     = 64 << 10
)

// recordLoc locates one recovered record above the watermark: its seq and
// where its frame lies on disk. The payload stays there until the cursor
// reads it back.
type recordLoc struct {
	seq  uint64
	off  int64  // frame offset in its segment file
	seg  uint32 // index into cursor.paths
	plen uint32 // frame payload length (kind byte and seq included)
}

// cursor is the replay side of recovery: the recovered records above the
// watermark, ascending by seq, consumed from the front by ReadUnacked.
type cursor struct {
	mu    sync.Mutex
	paths []string    // the scanned segment files, in index order
	locs  []recordLoc // records not yet handed out
	span  []byte      // reused pread buffer
	err   error       // sticky: the first failed read
}

// recover scans l.opts.Dir and populates segments, tailSeq, watermark and
// the replay cursor. Called from Open before any appends.
func (l *Log) recover() (Recovered, error) {
	var rec Recovered
	names, err := filepath.Glob(filepath.Join(l.opts.Dir, "*.wal"))
	if err != nil {
		return rec, err
	}
	sort.Strings(names)

	// Index every record above the watermark read so far; the *final*
	// watermark, known only at the end, retires the rest — a watermark
	// frame retires records appended before it in any earlier segment.
	s := scanner{br: bufio.NewReaderSize(nil, scanBufSize)}
	for i, name := range names {
		seg, n, trunc, err := l.scanSegment(&s, name, uint32(i), i == len(names)-1)
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

	locs := slices.DeleteFunc(s.locs, func(loc recordLoc) bool { return loc.seq <= l.watermark })
	slices.SortStableFunc(locs, func(a, b recordLoc) int { return cmp.Compare(a.seq, b.seq) })
	l.cursor.paths, l.cursor.locs = names, locs
	rec.Unacked = len(locs)
	return rec, nil
}

// scanner is the scan's reusable state: the one read buffer every segment
// streams through, the copy buffer for a frame larger than it, and the
// index being built.
type scanner struct {
	br    *bufio.Reader
	frame []byte
	locs  []recordLoc
}

// scanSegment reads one segment file front to back. For the last segment
// a torn tail is truncated in place; for earlier segments any damage is
// ErrCorrupt. It returns the segment descriptor (maxSeq filled in), the
// record count, and the truncated byte count.
func (l *Log) scanSegment(s *scanner, path string, segIdx uint32, last bool) (segment, int, int64, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return segment{}, 0, 0, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return segment{}, 0, 0, err
	}
	size := info.Size()
	s.br.Reset(f)

	var hdr [segHeaderLen]byte
	if size >= segHeaderLen {
		if _, err := io.ReadFull(s.br, hdr[:]); err != nil {
			return segment{}, 0, 0, err
		}
	}
	if size < segHeaderLen || !bytes.Equal(hdr[:8], segMagic[:]) {
		return segment{}, 0, 0, fmt.Errorf("%w: %s: bad segment header", ErrCorrupt, filepath.Base(path))
	}
	index := binary.BigEndian.Uint64(hdr[8:16])
	seg := segment{index: index, path: path}

	off := int64(segHeaderLen)
	count := 0
	for {
		frame, fn, ok, err := s.next(size - off)
		if err != nil {
			return seg, count, 0, err
		}
		if fn == 0 {
			break // clean end of segment
		}
		if !ok {
			if !last {
				return seg, count, 0, fmt.Errorf("%w: %s: bad frame at offset %d", ErrCorrupt, filepath.Base(path), off)
			}
			// Torn tail: cut the file back to the last good frame so the
			// file is clean evidence for any later scan.
			trunc := size - off
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
			// A record at or below the watermark so far is below the final
			// one too: it never reaches the index.
			if seq > l.watermark {
				if len(s.locs) == cap(s.locs) {
					// Size the index for the rest of the segment in frames
					// like this one: a uniform segment takes one allocation,
					// and 17-byte frames (the smallest) cost 24/17 of the
					// bytes left.
					s.locs = slices.Grow(s.locs, int((size-off)/fn)+1)
				}
				s.locs = append(s.locs, recordLoc{seq: seq, off: off, seg: segIdx, plen: uint32(len(frame))})
			}
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
		off += fn
	}
	return seg, count, 0, nil
}

// next reads one frame from the reader, with remaining bytes of the file
// left at its start. It returns the payload (valid until the next call),
// the total frame length consumed, and whether the frame is intact. fn ==
// 0 means a clean end (no bytes left); ok == false with fn > 0 means
// damage (short header, short payload, CRC mismatch, or an implausible
// length). err is a failed read, not damage. A frame that fits the read
// buffer is checked in place; only a larger one is copied out.
func (s *scanner) next(remaining int64) (payload []byte, fn int64, ok bool, err error) {
	if remaining == 0 {
		return nil, 0, true, nil
	}
	if remaining < frameHeaderLen {
		return nil, remaining, false, nil
	}
	hdr, err := s.br.Peek(frameHeaderLen)
	if err != nil {
		return nil, 0, false, err
	}
	plen := int64(binary.BigEndian.Uint32(hdr[0:4]))
	sum := binary.BigEndian.Uint32(hdr[4:8])
	// A frame's payload is at least the kind byte; an absurd length is
	// damage, not a giant record (appends cap well below this).
	if plen < 1 || plen > 1<<30 {
		return nil, frameHeaderLen, false, nil
	}
	fn = frameHeaderLen + plen
	if remaining < fn {
		return nil, remaining, false, nil
	}
	if fn <= int64(s.br.Size()) {
		frame, err := s.br.Peek(int(fn))
		if err != nil {
			return nil, 0, false, err
		}
		// Peek buffered all fn bytes, so Discard cannot fail, and the
		// payload stays valid until the next read.
		payload = frame[frameHeaderLen:]
		_, _ = s.br.Discard(int(fn))
	} else {
		_, _ = s.br.Discard(frameHeaderLen)
		s.frame = slices.Grow(s.frame[:0], int(plen))[:plen]
		if _, err := io.ReadFull(s.br, s.frame); err != nil {
			return nil, 0, false, err
		}
		payload = s.frame
	}
	if crc32.Checksum(payload, castagnoli) != sum {
		return nil, fn, false, nil
	}
	return payload, fn, true, nil
}

// ReadUnacked is the replay cursor over the records recovery found above
// the last watermark — admitted, possibly never completed. Each call fills
// dst with the next of them in ascending seq order and returns how many;
// 0 means every one has been handed out. A record's payload is copied into
// alloc(len), which the caller owns. One call covers one run of frames
// adjacent on disk, read with one pread, so it may fill less than dst.
// Each frame is verified again on the way out: one that changed since
// Open is ErrCorrupt, a segment file that vanished is an error, and the
// first error sticks — a call that fails hands out nothing. Re-inject
// what it returns through the spout path, and treat re-delivery of a
// completed-but-past-watermark record as the documented at-least-once
// duplicate window.
func (l *Log) ReadUnacked(dst []Record, alloc func(int) []byte) (int, error) {
	c := &l.cursor
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil || len(c.locs) == 0 || len(dst) == 0 {
		return 0, c.err
	}
	n, err := c.readSpan(dst, alloc)
	if c.err = err; err != nil || len(c.locs) == 0 {
		c.locs, c.span = nil, nil // exhausted or failed: drop the index and the buffer
	}
	return n, err
}

// readSpan hands out the run of adjacent frames at the front of locs — at
// most len(dst) of them and spanMax bytes, or one frame.
func (c *cursor) readSpan(dst []Record, alloc func(int) []byte) (int, error) {
	first := c.locs[0]
	end := first.off + frameHeaderLen + int64(first.plen)
	k := 1
	for ; k < len(dst) && k < len(c.locs); k++ {
		next := c.locs[k]
		nextEnd := end + frameHeaderLen + int64(next.plen)
		if next.seg != first.seg || next.off != end || nextEnd-first.off > spanMax {
			break
		}
		end = nextEnd
	}
	f, err := os.Open(c.paths[first.seg])
	if err != nil {
		return 0, fmt.Errorf("wal: replay: %w", err)
	}
	defer f.Close()
	name := filepath.Base(f.Name())
	c.span = slices.Grow(c.span[:0], int(end-first.off))[:end-first.off]
	if _, err := f.ReadAt(c.span, first.off); err != nil {
		return 0, fmt.Errorf("%w: %s: frames at offset %d unreadable since recovery: %v", ErrCorrupt, name, first.off, err)
	}
	for i, loc := range c.locs[:k] {
		frame := c.span[loc.off-first.off:]
		payload := frame[frameHeaderLen : frameHeaderLen+int64(loc.plen)]
		if binary.BigEndian.Uint32(frame[0:4]) != loc.plen || crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(frame[4:8]) {
			return 0, fmt.Errorf("%w: %s: frame at offset %d changed since recovery", ErrCorrupt, name, loc.off)
		}
		p := alloc(len(payload) - 9)
		copy(p, payload[9:])
		dst[i] = Record{Seq: loc.seq, Payload: p}
	}
	c.locs = c.locs[k:]
	return k, nil
}
