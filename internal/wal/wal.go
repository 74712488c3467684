// Package wal is the durability layer under the ingest front door: a
// segmented, CRC-framed write-ahead log that makes at-least-once survive
// process death, not just executor crashes. The contract with the gate is
// append-before-ACK — a record is only acknowledged to the client once its
// frame has reached the log file via write(2), so a kill -9 can never take
// an acknowledged record with it (the page cache belongs to the kernel,
// not the process; fsync, batched separately, extends the guarantee to
// machine crashes). On boot, Open scans the surviving segments, trims a
// torn tail, and indexes every record above the compacted ack watermark;
// ReadUnacked then streams them back for re-injection through the normal
// spout path.
//
// The moving parts:
//
//   - Log: the append side. Appends stage frames into an in-memory buffer
//     under a mutex and then group-commit: one appender becomes the
//     leader, writes everything staged in a single write(2), and releases
//     every waiter whose frame the write covered. Concurrent appenders
//     therefore amortize the syscall — the admit path pays ~O(100 ns)
//     per record, not a syscall each. fsync runs on a cadence
//     (Options.SyncEvery), not per commit.
//   - Segments: the log rotates at Options.SegmentBytes. Retention is
//     driven by the ack watermark: Prune deletes closed segments whose
//     highest record seq is at or below it, so the log's size tracks the
//     in-flight window, not history.
//   - Watermark records: the gate periodically appends the completion
//     tracker's contiguous watermark. Recovery replays only records above
//     the last one — everything below provably completed processing.
//   - Tracker (tracker.go): turns per-batch completion callbacks from the
//     engine into the contiguous watermark.
//   - Checkpoint (checkpoint.go): a small atomically-replaced JSON file
//     beside the segments carrying the control-plane state (allocation,
//     grant, cumulative books) a restart needs to resume sanely.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Frame layout: every record is [length u32][crc u32][payload], both
// big-endian; the payload is one kind byte followed by the kind's body,
// and the CRC (Castagnoli) covers the whole payload. Bodies:
//
//	kindRecord:    seq u64, record bytes (the admitted client record)
//	kindWatermark: seq u64 (every record seq <= it has fully completed)
//
// A segment file starts with a 16-byte header: an 8-byte magic and the
// segment's u64 index, so a renamed or mixed-up file is rejected instead
// of silently replayed.
const (
	frameHeaderLen = 8
	segHeaderLen   = 16

	kindRecord    = 1
	kindWatermark = 2
)

var segMagic = [8]byte{'D', 'R', 'S', 'W', 'A', 'L', '1', '\n'}

// castagnoli is the CRC-32C table shared by framing and recovery.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// ErrCorrupt reports corruption that recovery cannot attribute to a torn
// tail write — a bad frame in the middle of the log, a segment with a
// foreign header. A torn tail (the expected kill -9 artifact) is repaired
// silently; mid-log corruption means lost acknowledged records, which
// must surface, not vanish.
var ErrCorrupt = errors.New("wal: corrupt segment")

// Options parameterizes Open.
type Options struct {
	// Dir holds the segment files and the checkpoint (required; created
	// if missing).
	Dir string
	// SegmentBytes rotates the active segment past this size (default
	// 64 MiB, minimum 4 KiB).
	SegmentBytes int64
	// SyncEvery is the fsync cadence: a group commit fsyncs only when
	// this much time has passed since the last sync (default 10ms;
	// negative syncs on every flush). write(2) still happens on every
	// commit — the cadence bounds data loss on a *kernel* crash, not a
	// process kill.
	SyncEvery time.Duration
}

func (o Options) withDefaults() (Options, error) {
	if o.Dir == "" {
		return o, errors.New("wal: Dir is required")
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.SegmentBytes < 4<<10 {
		o.SegmentBytes = 4 << 10
	}
	if o.SyncEvery == 0 {
		o.SyncEvery = 10 * time.Millisecond
	}
	return o, nil
}

// Record is one recovered admitted record awaiting re-injection.
type Record struct {
	// Seq is the record's admission sequence number.
	Seq uint64
	// Payload is the client record as admitted.
	Payload []byte
}

// Recovered summarizes what Open found on disk.
type Recovered struct {
	// Segments is how many segment files survived.
	Segments int
	// Records is how many record frames the scan read.
	Records int
	// TailSeq is the highest record seq in the log (0 when empty).
	TailSeq uint64
	// Watermark is the last ack watermark appended before death; every
	// record at or below it completed processing.
	Watermark uint64
	// TruncatedBytes is the torn tail the scan cut off (0 on a clean
	// shutdown).
	TruncatedBytes int64
	// Unacked is how many records lie above the watermark — what
	// ReadUnacked will hand out.
	Unacked int
}

// segment is one closed or active segment file.
type segment struct {
	index  uint64
	path   string
	maxSeq uint64 // highest record seq appended while it was active
}

// Log is an open write-ahead log. AppendBatch and AppendWatermark are
// safe for concurrent use; they return once the frame has reached the
// file via write(2) (group-committed with every concurrent appender).
type Log struct {
	opts Options

	mu      sync.Mutex
	cond    *sync.Cond
	buf     []byte // staged frames awaiting the next group commit
	spare   []byte // double buffer handed back by the leader
	staged  int64  // logical log offset including staged bytes
	written int64  // logical log offset durably written
	writing bool   // a leader is inside write(2)
	werr    error  // sticky write failure; fails all later appends
	closed  bool

	f        *os.File // active segment
	fileSize int64    // bytes written to the active segment file
	segments []segment
	active   segment

	tailSeq   uint64 // highest record seq appended (any segment)
	watermark uint64 // highest watermark appended
	lastSync  time.Time

	cursor cursor // recovery's index, consumed by ReadUnacked
}

// Open creates or recovers the log in o.Dir: existing segments are
// scanned front to back, frames are CRC-verified, a torn tail on the last
// segment is truncated away, and every record above the last watermark is
// indexed for ReadUnacked. Appends continue on a fresh segment.
func Open(o Options) (*Log, Recovered, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, Recovered{}, err
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return nil, Recovered{}, err
	}
	l := &Log{opts: o}
	l.cond = sync.NewCond(&l.mu)
	rec, err := l.recover()
	if err != nil {
		return nil, rec, err
	}
	// Appends resume on a fresh segment: recovery never re-opens a file
	// for writing, so a recovered segment is immutable evidence.
	if err := l.rotateLocked(); err != nil {
		return nil, rec, err
	}
	return l, rec, nil
}

// segPath names a segment file by index.
func (l *Log) segPath(index uint64) string {
	return filepath.Join(l.opts.Dir, fmt.Sprintf("%016d.wal", index))
}

// rotateLocked closes the active segment (if any) and opens the next one.
// Callers hold no lock during Open; during appends the leader calls it
// with l.mu held and no concurrent writer possible.
func (l *Log) rotateLocked() error {
	next := uint64(1)
	if l.f != nil {
		if err := l.f.Sync(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.active.maxSeq = l.tailSeq
		l.segments = append(l.segments, l.active)
	}
	if n := len(l.segments); n > 0 {
		next = l.segments[n-1].index + 1
	}
	f, err := os.OpenFile(l.segPath(next), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], next)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.fileSize = segHeaderLen
	l.active = segment{index: next, path: l.segPath(next)}
	return nil
}

// frameRecord appends one kindRecord frame to dst and returns it.
func frameRecord(dst []byte, seq uint64, rec []byte) []byte {
	payloadLen := 1 + 8 + len(rec)
	dst = growFrame(dst, payloadLen)
	p := dst[len(dst)-payloadLen:]
	p[0] = kindRecord
	binary.BigEndian.PutUint64(p[1:], seq)
	copy(p[9:], rec)
	sealFrame(dst, payloadLen)
	return dst
}

// frameWatermark appends one kindWatermark frame to dst and returns it.
func frameWatermark(dst []byte, seq uint64) []byte {
	const payloadLen = 1 + 8
	dst = growFrame(dst, payloadLen)
	p := dst[len(dst)-payloadLen:]
	p[0] = kindWatermark
	binary.BigEndian.PutUint64(p[1:], seq)
	sealFrame(dst, payloadLen)
	return dst
}

// growFrame extends dst by one frame header plus payloadLen bytes,
// returning the slice with the new region appended (contents are fully
// overwritten by the caller).
func growFrame(dst []byte, payloadLen int) []byte {
	need := frameHeaderLen + payloadLen
	dst = slices.Grow(dst, need)
	return dst[:len(dst)+need]
}

// sealFrame writes the length and CRC of the frame occupying the last
// frameHeaderLen+payloadLen bytes of buf.
func sealFrame(buf []byte, payloadLen int) {
	frame := buf[len(buf)-frameHeaderLen-payloadLen:]
	binary.BigEndian.PutUint32(frame[0:], uint32(payloadLen))
	binary.BigEndian.PutUint32(frame[4:], crc32.Checksum(frame[frameHeaderLen:], castagnoli))
}

// AppendBatch stages a batch of admitted records with consecutive
// sequence numbers starting at firstSeq and returns once they are
// group-committed to the active segment via write(2), as one unit.
// Concurrent appenders share one syscall per commit round; a single
// record is a batch of one.
func (l *Log) AppendBatch(firstSeq uint64, recs [][]byte) error {
	if len(recs) == 0 {
		return nil
	}
	l.mu.Lock()
	err := l.stageLocked(func(buf []byte) []byte {
		for i, rec := range recs {
			buf = frameRecord(buf, firstSeq+uint64(i), rec)
		}
		return buf
	}, firstSeq+uint64(len(recs))-1)
	if err != nil {
		l.mu.Unlock()
		return err
	}
	return l.commitLocked()
}

// AppendWatermark durably records that every record seq at or below w has
// completed processing. Recovery replays only records above the highest
// watermark; Prune uses it to retire whole segments.
func (l *Log) AppendWatermark(w uint64) error {
	l.mu.Lock()
	if err := l.stageLocked(func(buf []byte) []byte { return frameWatermark(buf, w) }, 0); err != nil {
		l.mu.Unlock()
		return err
	}
	if w > l.watermark {
		l.watermark = w
	}
	return l.commitLocked()
}

// stageLocked frames into the staging buffer under l.mu.
func (l *Log) stageLocked(frame func([]byte) []byte, maxSeq uint64) error {
	if l.closed {
		return ErrClosed
	}
	if l.werr != nil {
		return l.werr
	}
	before := len(l.buf)
	l.buf = frame(l.buf)
	l.staged += int64(len(l.buf) - before)
	if maxSeq > l.tailSeq {
		l.tailSeq = maxSeq
	}
	return nil
}

// commitLocked is the group-commit rendezvous: the caller's frames are
// staged at offset l.staged; it waits until a leader's write covers them,
// becoming the leader itself when none is in flight. Called with l.mu
// held; returns with it released.
func (l *Log) commitLocked() error {
	target := l.staged
	for l.written < target && l.werr == nil {
		if l.writing {
			l.cond.Wait()
			continue
		}
		// Leader: take everything staged (our frames and any follower's),
		// write it in one syscall, then release the cohort.
		l.writing = true
		batch := l.buf
		end := l.staged
		l.buf = l.spare[:0]
		l.mu.Unlock()

		_, werr := l.f.Write(batch)
		if werr == nil {
			l.fileSize += int64(len(batch))
			now := time.Now()
			if l.opts.SyncEvery < 0 || now.Sub(l.lastSync) >= l.opts.SyncEvery {
				werr = l.f.Sync()
				l.lastSync = now
			}
		}

		l.mu.Lock()
		l.spare = batch[:0]
		l.writing = false
		if werr != nil {
			// A failed write leaves the segment tail undefined; poison the
			// log rather than acknowledge into the void.
			l.werr = fmt.Errorf("wal: append failed: %w", werr)
		} else {
			l.written = end
			if l.fileSize >= l.opts.SegmentBytes {
				if rerr := l.rotateLocked(); rerr != nil {
					l.werr = fmt.Errorf("wal: segment rotation failed: %w", rerr)
				}
			}
		}
		l.cond.Broadcast()
	}
	err := l.werr
	l.mu.Unlock()
	return err
}

// Sync forces an fsync of the active segment regardless of cadence.
//
//checkdoc:testonly safety: a durability primitive stays whether or not a program calls it today
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.werr != nil {
		return l.werr
	}
	l.lastSync = time.Now()
	return l.f.Sync()
}

// Prune deletes closed segments whose every record seq is at or below w —
// the retention side of the ack watermark. The active segment is never
// pruned. It returns how many segment files were removed.
func (l *Log) Prune(w uint64) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	removed := 0
	for len(l.segments) > 0 && l.segments[0].maxSeq <= w {
		if err := os.Remove(l.segments[0].path); err != nil {
			return removed, err
		}
		l.segments = l.segments[1:]
		removed++
	}
	return removed, nil
}

// TailSeq reports the highest record seq appended or recovered.
func (l *Log) TailSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.tailSeq
}

// Watermark reports the highest ack watermark appended or recovered.
func (l *Log) Watermark() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.watermark
}

// Segments reports the number of live segment files (closed plus active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segments) + 1
}

// Close flushes staged frames, fsyncs and closes the active segment.
func (l *Log) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	// Let any in-flight leader finish its write(2) before touching the
	// file; it holds no lock while writing.
	for l.writing {
		l.cond.Wait()
	}
	// Flush anything staged by appenders that have not committed yet (no
	// waiter is abandoned: closed is only set under the same mutex).
	var err error
	if l.staged > l.written && l.werr == nil {
		if _, werr := l.f.Write(l.buf); werr != nil {
			err = werr
		} else {
			l.written = l.staged
		}
	}
	l.closed = true
	if l.werr != nil && err == nil {
		err = l.werr
	}
	if serr := l.f.Sync(); serr != nil && err == nil {
		err = serr
	}
	if cerr := l.f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	return err
}
