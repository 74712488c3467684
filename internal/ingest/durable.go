// Durable mode: the gate's at-least-once contract across process death.
// With a WAL attached, admit appends the records a burst pushed to the log
// — one AppendBatch for all of them — *before* any of them reads admitted;
// the listener's ACK (HTTP 2xx / TCP ACK) therefore implies the record
// survives kill -9. On boot,
// AttachWAL reconciles the log against its compacted ack watermark and
// Replay re-injects every possibly-unprocessed record through the normal
// ring → NetworkSpout path; the completion callbacks of the acked spout
// path advance a wal.Tracker whose contiguous watermark is periodically
// appended back to the log and drives segment retention.
//
// Sequence spaces across lives: seqs are assigned by the counted ring
// push, anchored at the recovered watermark W — replayed records take
// W+1.. in log order, new admissions continue after them. A crash window
// can leave gaps in the *logged* seqs (ring push and WAL append are not
// atomic), so a replayed record's new seq can be below its original one
// and a fresh admission can reuse an orphaned seq. Both skews point the
// same safe direction: a watermark only ever covers frames whose payload
// completed processing in some life, so compaction never drops an
// unprocessed record and recovery errs toward duplicate replay — the
// documented at-least-once window — never loss.

package ingest

import (
	"errors"
	"fmt"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/wal"
)

// ErrNotDurable is returned by durable-only operations on a gate with no
// WAL attached.
var ErrNotDurable = errors.New("ingest: gate has no WAL attached")

// DurableSource adapts the gate's ring into an engine.AckBatchSource:
// each popped batch is registered with the completion tracker as a seq
// range (pops are FIFO, so counting pops reconstructs the pushed seqs)
// and the returned ack advances the WAL watermark when the engine
// finishes the batch. Single-consumer, like the ring it wraps.
type DurableSource struct {
	ring   *Ring
	tr     *wal.Tracker
	popped uint64 // consumer-side seq cursor; single consumer, no lock
}

// PopBatch implements engine.BatchSource (the non-acked drain).
func (s *DurableSource) PopBatch(done <-chan struct{}, buf []engine.Values) ([]engine.Values, bool) {
	return s.ring.PopBatch(done, buf)
}

// PopBatchAcked implements engine.AckBatchSource: the popped batch covers
// seqs (popped, popped+len] and the ack closure marks that range complete.
func (s *DurableSource) PopBatchAcked(done <-chan struct{}, buf []engine.Values) ([]engine.Values, func(), bool) {
	batch, ok := s.ring.PopBatch(done, buf)
	if !ok {
		return nil, nil, false
	}
	s.popped += uint64(len(batch))
	return batch, s.tr.Deliver(s.popped), true
}

// PopBatchTraced implements engine.TracedBatchSource: PopBatchAcked with
// each payload's trace id alongside, so durable ingest and tracing
// compose — the watermark ack and the trace context ride the same pop.
func (s *DurableSource) PopBatchTraced(done <-chan struct{}, buf []engine.Values, ids []uint64) ([]engine.Values, []uint64, func(), bool) {
	batch, traces, ok := s.ring.popBatch(done, buf, ids)
	if !ok {
		return nil, nil, nil, false
	}
	s.popped += uint64(len(batch))
	return batch, traces, s.tr.Deliver(s.popped), true
}

// AttachWAL puts the gate in durable mode: admission seqs continue from
// the log's recovered ack watermark, Offer appends before acknowledging,
// and Replay reads the log's unacked records back. Call once, before
// Start and before any Offer; the caller retains ownership of the log
// (serve closes it after the final watermark sync).
func (g *Gate) AttachWAL(l *wal.Log) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.wal.Load() != nil {
		return errors.New("ingest: WAL already attached")
	}
	w := l.Watermark()
	g.tracker = wal.NewTracker(w)
	g.lastWatermark = w
	g.ring.setPushed(w)
	g.wal.Store(l)
	return nil
}

// Source returns the engine.BatchSource a NetworkSpout should drain: the
// acked durable source in durable mode, the bare ring otherwise. The
// durable source must be the one wired into the topology — watermarks
// only advance through its completion callbacks.
func (g *Gate) Source() engine.BatchSource {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.wal.Load() != nil {
		return &DurableSource{ring: g.ring, tr: g.tracker, popped: g.lastWatermark}
	}
	return g.ring
}

// Replay re-injects the recovered unacked records through the ring in log
// order, streaming them off the log a burst at a time (the spout must
// already be draining — call after the engine run starts, before
// listeners open so replayed and fresh traffic cannot interleave). It
// never grows the ring: what the storage the ring starts with refuses is
// pushed again as soon as the spout pops, so boot holds one burst and
// that storage, not the log. It returns the number of records
// re-injected; a record the log cannot read back fails it, with nothing
// past that record pushed. Replayed records are already in the log and
// are not re-appended.
func (g *Gate) Replay() (int, error) {
	l := g.wal.Load()
	if l == nil {
		return 0, nil
	}
	var (
		sl   engine.Slab
		b    burst
		recs [burstMax]wal.Record
		done int
	)
	limit := min(g.ring.bound, ringFloor)
	defer func() { g.replayed.Add(int64(done)) }()
	for {
		n, err := l.ReadUnacked(recs[:], sl.Bytes)
		if err != nil || n == 0 {
			return done, err
		}
		b.reset()
		for _, rec := range recs[:n] {
			v := sl.Values(1)
			v[0] = sl.BoxBytes(rec.Payload)
			b.offers = append(b.offers, offer{v: v, verdict: Verdict{Admitted: true}})
		}
		for rest := b.offers; ; <-g.ring.notFull {
			_, pushed, _ := g.ring.pushBurst(rest, 0, limit)
			done += pushed
			if rest = rest[pushed:]; len(rest) == 0 {
				break
			}
			if g.closed.Load() {
				return done, ErrClosed
			}
			for i := range rest {
				rest[i].verdict = Verdict{Admitted: true}
			}
		}
	}
}

// SyncWatermark appends the tracker's current contiguous completion
// watermark to the log (if it advanced) and prunes segments it retires.
// The replanning loop calls it every round; drivers with their own
// cadence (virtual-time experiments, shutdown paths) call it directly.
func (g *Gate) SyncWatermark() error {
	l := g.wal.Load()
	if l == nil {
		return ErrNotDurable
	}
	g.mu.Lock()
	tr := g.tracker
	g.mu.Unlock()
	w := tr.Watermark()
	g.mu.Lock()
	advanced := w > g.lastWatermark
	if advanced {
		g.lastWatermark = w
	}
	g.mu.Unlock()
	if !advanced {
		return nil
	}
	if err := l.AppendWatermark(w); err != nil {
		return err
	}
	if _, err := l.Prune(w); err != nil {
		return fmt.Errorf("ingest: prune to %d: %w", w, err)
	}
	return nil
}

// Watermark reports the completion tracker's contiguous watermark (0 when
// not durable).
func (g *Gate) Watermark() uint64 {
	g.mu.Lock()
	tr := g.tracker
	g.mu.Unlock()
	if tr == nil {
		return 0
	}
	return tr.Watermark()
}

// recordBytes extracts the loggable record from a listener payload. The
// listeners produce single-field []byte payloads; durable mode requires
// that shape so the log can reconstruct the tuple on replay.
func recordBytes(v engine.Values) ([]byte, bool) {
	if len(v) != 1 {
		return nil, false
	}
	b, ok := v[0].([]byte)
	return b, ok
}
