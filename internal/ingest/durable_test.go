package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/wal"
)

// durableGate builds a gate with a WAL attached over dir.
func durableGate(t *testing.T, dir string, ring int) (*Gate, *wal.Log, wal.Recovered) {
	t.Helper()
	l, rec, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	g := NewGate(GateConfig{RingCapacity: ring})
	if err := g.AttachWAL(l); err != nil {
		t.Fatalf("AttachWAL: %v", err)
	}
	return g, l, rec
}

// TestDurableAdmitLogsBeforeAck: every admitted offer is in the log by
// the time the verdict returns — reopening the log recovers exactly the
// admitted records, in admission order.
func TestDurableAdmitLogsBeforeAck(t *testing.T) {
	dir := t.TempDir()
	g, l, _ := durableGate(t, dir, 64)
	c := g.Client("alice", 1, 0, 0)
	const n = 40
	for i := 0; i < n; i++ {
		v := g.valuesForTest(fmt.Sprintf("rec-%02d", i))
		if verdict := c.Offer(v); !verdict.Admitted {
			t.Fatalf("offer %d refused: %+v", i, verdict)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("wal close: %v", err)
	}

	// "Restart": a second log over the same dir must hand back all n
	// records as unacked (nothing completed — the ring was never drained).
	l2, rec, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if rec.Records != n || rec.Watermark != 0 {
		t.Fatalf("recovered %d records watermark %d, want %d/0", rec.Records, rec.Watermark, n)
	}
	un := readUnacked(t, l2)
	if len(un) != n {
		t.Fatalf("unacked %d, want %d", len(un), n)
	}
	for i, r := range un {
		if string(r.Payload) != fmt.Sprintf("rec-%02d", i) {
			t.Fatalf("unacked[%d] payload %q", i, r.Payload)
		}
	}
}

// valuesForTest builds the single-field []byte payload shape the durable
// gate requires (mirrors the listeners' valuesFor).
func (g *Gate) valuesForTest(s string) engine.Values { return engine.Values{[]byte(s)} }

// TestDurableKillReplayArc is the in-package kill -9 arc: life 1 admits
// and ACKs records that are never processed (no consumer), dies; life 2
// recovers, replays through the acked source, completes everything,
// compacts; life 3 finds an empty unacked set. Zero admitted loss, books
// balance.
func TestDurableKillReplayArc(t *testing.T) {
	dir := t.TempDir()

	// Life 1: admit 30 records, process (ack) only the first 10, sync the
	// watermark, then die with 20 admitted-and-ACKed records unprocessed.
	g1, l1, _ := durableGate(t, dir, 64)
	c1 := g1.Client("alice", 1, 0, 0)
	const total, processed = 30, 10
	for i := 0; i < total; i++ {
		if v := c1.Offer(g1.valuesForTest(fmt.Sprintf("r-%02d", i))); !v.Admitted {
			t.Fatalf("life1 offer %d refused", i)
		}
	}
	src1 := g1.Source().(*DurableSource)
	done := make(chan struct{})
	buf := make([]engine.Values, 0, processed)
	batch, ack, ok := src1.PopBatchAcked(done, buf)
	if !ok || len(batch) != processed {
		t.Fatalf("life1 pop: ok=%v len=%d", ok, len(batch))
	}
	ack()
	if w := g1.Watermark(); w != processed {
		t.Fatalf("life1 watermark = %d, want %d", w, processed)
	}
	if err := g1.SyncWatermark(); err != nil {
		t.Fatalf("life1 SyncWatermark: %v", err)
	}
	// kill -9: no gate Close, no drain — just the log handle dropped.
	// (Close here only flushes what write(2) already made durable.)
	if err := l1.Close(); err != nil {
		t.Fatalf("life1 wal close: %v", err)
	}

	// Life 2: recover, replay, process everything, compact.
	g2, l2, rec := durableGate(t, dir, 64)
	if rec.Watermark != processed {
		t.Fatalf("life2 recovered watermark %d, want %d", rec.Watermark, processed)
	}
	nReplay, err := g2.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if nReplay != total-processed {
		t.Fatalf("replayed %d, want %d", nReplay, total-processed)
	}
	if got := g2.Stats().Replayed; got != int64(nReplay) {
		t.Fatalf("Stats.Replayed = %d, want %d", got, nReplay)
	}
	// New traffic lands after the replayed backlog.
	c2 := g2.Client("alice", 1, 0, 0)
	if v := c2.Offer(g2.valuesForTest("fresh-0")); !v.Admitted {
		t.Fatal("life2 fresh offer refused")
	}
	src2 := g2.Source().(*DurableSource)
	seen := []string{}
	for len(seen) < nReplay+1 {
		batch, ack, ok := src2.PopBatchAcked(done, make([]engine.Values, 0, 64))
		if !ok {
			t.Fatal("life2 source closed early")
		}
		for _, v := range batch {
			seen = append(seen, string(v[0].([]byte)))
		}
		ack()
	}
	// FIFO: the replayed records (in log order) precede the fresh one.
	for i := 0; i < nReplay; i++ {
		want := fmt.Sprintf("r-%02d", processed+i)
		if seen[i] != want {
			t.Fatalf("replayed[%d] = %q, want %q", i, seen[i], want)
		}
	}
	if seen[nReplay] != "fresh-0" {
		t.Fatalf("fresh record = %q", seen[nReplay])
	}
	wantW := uint64(total + 1) // 30 originals + 1 fresh, all complete
	if w := g2.Watermark(); w != wantW {
		t.Fatalf("life2 watermark = %d, want %d", w, wantW)
	}
	if err := g2.SyncWatermark(); err != nil {
		t.Fatalf("life2 SyncWatermark: %v", err)
	}
	if err := l2.Close(); err != nil {
		t.Fatalf("life2 wal close: %v", err)
	}

	// Life 3: nothing to replay.
	l3, rec3, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
	if err != nil {
		t.Fatalf("life3 open: %v", err)
	}
	defer l3.Close()
	if rec3.Watermark != wantW {
		t.Fatalf("life3 watermark %d, want %d", rec3.Watermark, wantW)
	}
	if rec3.Unacked != 0 {
		t.Fatalf("life3 unacked = %d records, want 0", rec3.Unacked)
	}
}

// signalSource wraps a durable source so a test waits on the drain instead
// of polling it: popped ticks after every pop, acked after every completion.
// Both latch, so a tick that lands before the test waits is not lost.
type signalSource struct {
	src           *DurableSource
	popped, acked chan struct{}
}

func (s *signalSource) PopBatch(done <-chan struct{}, buf []engine.Values) ([]engine.Values, bool) {
	return s.src.PopBatch(done, buf)
}

func (s *signalSource) PopBatchAcked(done <-chan struct{}, buf []engine.Values) ([]engine.Values, func(), bool) {
	batch, ack, ok := s.src.PopBatchAcked(done, buf)
	latch(s.popped)
	return batch, func() { ack(); latch(s.acked) }, ok
}

// await blocks until c ticks; the deadline only bounds a hang.
func await(t *testing.T, c <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-c:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// TestDurableLiveEngineArc drives the durable gate through a real
// topology: offers ACK only after the WAL append, the NetworkSpout uses
// the acked path, and the watermark converges to the admitted count.
func TestDurableLiveEngineArc(t *testing.T) {
	dir := t.TempDir()
	g, l, _ := durableGate(t, dir, 1024)
	src := &signalSource{src: g.Source().(*DurableSource), popped: make(chan struct{}, 1), acked: make(chan struct{}, 1)}
	topo, err := engine.NewTopology().
		Spout("net", 1, func(int) engine.Spout {
			return &engine.NetworkSpout{Source: src, MaxBatch: 32}
		}).
		Bolt("sink", 2, func(int) engine.Bolt {
			return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
		}).
		Shuffle("net", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"sink": 2}})
	if err != nil {
		t.Fatal(err)
	}
	c := g.Client("alice", 1, 0, 0)
	const n = 2000
	admitted := 0
	for i := 0; i < n; {
		if v := c.Offer(g.valuesForTest(fmt.Sprintf("live-%04d", i))); v.Admitted {
			admitted++
			i++
		} else {
			await(t, src.popped, "a pop to make room in the ring") // bounded ring backpressure
		}
	}
	for g.Watermark() != uint64(admitted) {
		await(t, src.acked, fmt.Sprintf("the watermark (at %d, admitted %d)", g.Watermark(), admitted))
	}
	if err := g.SyncWatermark(); err != nil {
		t.Fatalf("SyncWatermark: %v", err)
	}
	g.Close()
	if err := run.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A restart after a clean converged run replays nothing.
	l2, rec, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 1 << 20, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec.Watermark != uint64(admitted) {
		t.Fatalf("recovered watermark %d, want %d", rec.Watermark, admitted)
	}
	if rec.Unacked != 0 {
		t.Fatalf("unacked after clean run = %d", rec.Unacked)
	}
}

// readUnacked drains l's replay cursor, each payload in an allocation of
// its own.
func readUnacked(t *testing.T, l *wal.Log) []wal.Record {
	t.Helper()
	var out []wal.Record
	buf := make([]wal.Record, burstMax)
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

// seedLog leaves in dir what a killed process would: n records of size
// bytes ("p-0000", "p-0001", … padded with '.'), appended in batches,
// none of them acked. It returns the log's size on disk.
func seedLog(t *testing.T, dir string, n, size int) int64 {
	t.Helper()
	return seedLogSized(t, dir, n, func(int) int { return size })
}

// seedLogSized is seedLog with record i sizeOf(i) bytes long.
func seedLogSized(t *testing.T, dir string, n int, sizeOf func(i int) int) int64 {
	t.Helper()
	l, _, err := wal.Open(wal.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([][]byte, 0, 1000)
	for i := 0; i < n; i++ {
		rec := bytes.Repeat([]byte{'.'}, sizeOf(i))
		copy(rec, fmt.Sprintf("p-%04d", i))
		if recs = append(recs, rec); len(recs) == cap(recs) || i == n-1 {
			if err := l.AppendBatch(uint64(i+2-len(recs)), recs); err != nil {
				t.Fatal(err)
			}
			recs = recs[:0]
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var total int64
	names, _ := filepath.Glob(filepath.Join(dir, "*.wal"))
	for _, name := range names {
		info, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	return total
}

// drainRing pops g's ring on a goroutine of its own until n payloads went
// through or the ring closed and emptied, handing each to seen (if not
// nil), and sends the most storage the ring held after any pop. Close the
// gate before waiting, so a replay that stops short cannot strand it.
func drainRing(g *Gate, n int, seen func(engine.Values)) <-chan int {
	most := make(chan int, 1)
	go func() {
		buf := make([]engine.Values, 0, 64)
		peak := 0
		for got := 0; got < n; {
			batch, ok := g.Ring().PopBatch(nil, buf)
			if !ok {
				break
			}
			got += len(batch)
			if seen != nil {
				for _, v := range batch {
					seen(v)
				}
			}
			_, allocated, _ := g.Ring().Slots()
			peak = max(peak, allocated)
		}
		most <- peak
	}()
	return most
}

// openMeasured opens the log in dir, checks it recovered n unacked records
// and that Open allocated at most bound times the log's bytes, and reports
// how long Open took and what it allocated.
func openMeasured(t *testing.T, dir string, n int, logBytes int64, bound float64) (*wal.Log, time.Duration, uint64) {
	t.Helper()
	var before, opened runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	l, rec, err := wal.Open(wal.Options{Dir: dir, SyncEvery: -1})
	openTime := time.Since(start)
	runtime.ReadMemStats(&opened)
	if err != nil {
		t.Fatal(err)
	}
	alloc := opened.TotalAlloc - before.TotalAlloc
	if rec.Unacked != n {
		l.Close()
		t.Fatalf("recovered %d unacked records, want %d", rec.Unacked, n)
	}
	if float64(alloc) > bound*float64(logBytes) {
		l.Close()
		t.Fatalf("Open allocated %d bytes (%.2f×) over a %d-byte log, want at most %.1f×", alloc, float64(alloc)/float64(logBytes), logBytes, bound)
	}
	return l, openTime, alloc
}

// firstSegment is the segment seedLog wrote in dir.
func firstSegment(dir string) string { return filepath.Join(dir, fmt.Sprintf("%016d.wal", 1)) }

// TestReplayFailsOnFrameChangedAfterOpen: replay verifies each frame it
// reads back. A payload byte flipped after Open fails Replay with
// ErrCorrupt, and no record from the bad frame on reaches the ring.
func TestReplayFailsOnFrameChangedAfterOpen(t *testing.T) {
	dir := t.TempDir()
	const n, bad = 3*burstMax + 17, 600
	seedLog(t, dir, n, 16)
	g, l, _ := durableGate(t, dir, 1<<12) // the replay fits the ring's floor: no consumer needed
	defer l.Close()
	data, err := os.ReadFile(firstSegment(dir))
	if err != nil {
		t.Fatal(err)
	}
	data[bytes.Index(data, []byte(fmt.Sprintf("p-%04d", bad)))+len("p-0000")] ^= 1
	if err := os.WriteFile(firstSegment(dir), data, 0o644); err != nil {
		t.Fatal(err)
	}
	replayed, err := g.Replay()
	if !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Replay over a changed frame: %d replayed, err %v, want ErrCorrupt", replayed, err)
	}
	if replayed > bad || g.Ring().Len() != replayed || g.Stats().Replayed != int64(replayed) {
		t.Fatalf("replayed %d, ring holds %d, gate counted %d: want the same count, at most %d", replayed, g.Ring().Len(), g.Stats().Replayed, bad)
	}
	if replayed > 0 {
		out, _ := g.Ring().PopBatch(nil, make([]engine.Values, 0, n))
		for i, v := range out {
			if want := fmt.Sprintf("p-%04d", i); !bytes.HasPrefix(v[0].([]byte), []byte(want)) {
				t.Fatalf("replayed record %d is %q, want %s…", i, v[0], want)
			}
		}
	}
}

// TestReplayFailsOnMissingSegment: a segment file removed after Open
// fails Replay with the file's own error, before anything is pushed.
func TestReplayFailsOnMissingSegment(t *testing.T) {
	dir := t.TempDir()
	seedLog(t, dir, 100, 16)
	g, l, _ := durableGate(t, dir, 1<<12)
	defer l.Close()
	if err := os.Remove(firstSegment(dir)); err != nil {
		t.Fatal(err)
	}
	if replayed, err := g.Replay(); !errors.Is(err, os.ErrNotExist) || replayed != 0 || g.Ring().Len() != 0 {
		t.Fatalf("Replay without its segment: %d replayed, %d in the ring, err %v, want 0, 0 and ErrNotExist", replayed, g.Ring().Len(), err)
	}
}

// TestDurableBootBound: a durable boot costs an index and a burst, not the
// log. On a 20 000-record log of the benchmark's 128-byte records, wal.Open
// allocates at most 0.3× the log's bytes (reading every segment whole and
// copying out every record cost ≈ 7.8×; regrowing the index in append's
// steps, ≈ 0.9×), and while Replay streams the records into the ring the
// ring's storage never grows past its floor. A log whose first record is
// empty sizes the index for the smallest frame, and still stays within
// 1.5×. -v prints the boot phases.
func TestDurableBootBound(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n = 20000
	t.Run("mixed", func(t *testing.T) {
		dir := t.TempDir()
		logBytes := seedLogSized(t, dir, n, func(i int) int { return min(i, 1) * 128 })
		l, _, alloc := openMeasured(t, dir, n, logBytes, 1.5)
		l.Close()
		t.Logf("open: allocated %.2f MB (%.2f× the %.2f MB log)", float64(alloc)/1e6, float64(alloc)/float64(logBytes), float64(logBytes)/1e6)
	})
	dir := t.TempDir()
	logBytes := seedLog(t, dir, n, 128)
	l, openTime, alloc := openMeasured(t, dir, n, logBytes, 0.3)
	defer l.Close()
	var live runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&live)
	t.Logf("open: %d records, %.1f ms, allocated %.2f MB (%.2f× the %.2f MB log), live heap after %.2f MB",
		n, openTime.Seconds()*1e3, float64(alloc)/1e6, float64(alloc)/float64(logBytes), float64(logBytes)/1e6, float64(live.HeapAlloc)/1e6)

	g := NewGate(GateConfig{RingCapacity: 1 << 16}) // the benchmark's bound
	if err := g.AttachWAL(l); err != nil {
		t.Fatal(err)
	}
	next := 0
	most := drainRing(g, n, func(v engine.Values) {
		if want := fmt.Sprintf("p-%04d", next); !bytes.HasPrefix(v[0].([]byte), []byte(want)) {
			t.Errorf("replayed record %d is %.6q…, want %s…", next, v[0], want)
		}
		next++
	})
	start := time.Now()
	replayed, err := g.Replay()
	g.Close()
	peak := <-most
	t.Logf("replay: %d records in %.1f ms, ring storage at most %d slots (floor %d, bound %d)",
		replayed, time.Since(start).Seconds()*1e3, peak, ringFloor, 1<<16)
	if err != nil || replayed != n || next != n {
		t.Fatalf("replayed %d (consumer saw %d) err %v, want %d", replayed, next, err, n)
	}
	if peak > ringFloor {
		t.Fatalf("the ring grew to %d slots during replay, want at most its floor %d", peak, ringFloor)
	}
}
