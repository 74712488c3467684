// trace.go is the data plane's half of the observability layer: Dapper-
// style sampled per-root tracing. A root tuple that wins the sampling
// hash at the ingest gate carries its trace id on the ack tree; every
// segment of its life (gate admit, WAL append, per-hop queue wait and
// service, remote shuttle residue, and the closing whole-tree sojourn)
// is emitted as a fixed-shape SpanRecord into the same sharded-ring /
// single-drainer machinery the decision log uses. Sampling is a
// deterministic hash of the trace id, so identical runs trace identical
// roots — the property the local==remote golden experiment leans on.
package obs

import (
	"cmp"
	"time"
)

// SpanKind tags which latency segment of a traced root a SpanRecord
// covers. The zero kind is invalid so a forgotten tag is visible.
type SpanKind uint8

// Span kinds. A complete trace is gate [wal] (queue service [shuttle])*
// root: one gate mark, one WAL segment in durable mode, one queue/service
// pair per bolt hop (plus a shuttle segment when the hop ran on a remote
// worker), and exactly one root span that closes the trace.
const (
	SpanInvalid SpanKind = iota
	SpanGate             // admit instant at the ingest gate (Dur 0; Tenant = client id)
	SpanWAL              // durable admit tail: group-commit WAL append
	SpanQueue            // queue wait: parent handoff -> executor service start
	SpanService          // bolt service: the Process() call itself
	SpanShuttle          // remote residue: shuttle RTT minus worker wait+service
	SpanRoot             // whole-tree sojourn, emitted at final ack; closes the trace

	spanKindCount // sentinel; keep last
)

// spanKindNames is the canonical wire name per span kind, used by the
// NDJSON codec. Names are stable: changing one breaks trace consumers.
var spanKindNames = [spanKindCount]string{
	SpanInvalid: "invalid",
	SpanGate:    "gate",
	SpanWAL:     "wal",
	SpanQueue:   "queue",
	SpanService: "service",
	SpanShuttle: "shuttle",
	SpanRoot:    "root",
}

// String returns the canonical wire name for the span kind.
func (k SpanKind) String() string {
	if k >= spanKindCount {
		return "invalid"
	}
	return spanKindNames[k]
}

// SpanKindFromString maps a wire name back to its SpanKind (false for
// unknown names, including "invalid" — no emitter writes it).
func SpanKindFromString(s string) (SpanKind, bool) {
	for k := SpanGate; k < spanKindCount; k++ {
		if spanKindNames[k] == s {
			return k, true
		}
	}
	return SpanInvalid, false
}

// SpanRecord is one latency segment of a sampled root, in fixed shape so
// emission is a value copy into a preallocated ring slot — zero heap
// allocations on the data plane's hot path. String fields must be header
// copies of strings that already exist (bolt names, client ids), never
// formatted on the emit path. StartNS is wall-clock so segments from the
// gate, the engine and remote workers line up on one axis; DurNS values
// telescope: for every hop queue starts at the parent's service end, so
// a chain trace's segment durations sum exactly to the root span's.
type SpanRecord struct {
	Seq     uint64   // tracer emission sequence (assigned by EmitSpan)
	Trace   uint64   // trace id (the gate's admit sequence); never zero
	Kind    SpanKind // latency segment kind; see span kind docs
	Bolt    string   // bolt the segment ran on ("" for gate/wal/root)
	Tenant  string   // gate client id (gate/wal spans; "" elsewhere)
	Task    int      // task index the tuple was routed to
	Remote  bool     // segment crossed the worker shuttle
	StartNS int64    // segment start, unix nanoseconds
	DurNS   int64    // segment duration in nanoseconds
}

// TracerConfig sizes a Tracer. The zero value is usable: 4 shards x 1024
// spans, sampling every root, no sink or assembler (manual Close only).
// Unlike the decision log's, a tracer's rings are sized by its caller:
// the trace experiment and the benchmark trace every root of a burst.
type TracerConfig struct {
	// Shards is the ring shard count, rounded up to a power of two.
	Shards int
	// ShardCapacity is the span capacity per shard.
	ShardCapacity int
	// SamplePermille keeps N traces per 1000 roots (default 1000 = trace
	// everything). The decision is a deterministic hash of the trace id:
	// identical id streams sample identical roots, run to run, process
	// to process.
	SamplePermille int
	// Sink receives drained NDJSON span batches (nil: no file output).
	Sink Sink
	// Assembler, when non-nil, folds drained spans into completed traces
	// and latency-breakdown histograms on the drainer goroutine.
	Assembler *Assembler
	// FlushEvery is the drainer's sweep cadence (default 250ms).
	FlushEvery time.Duration
}

// Tracer is a bounded, sharded span buffer with deterministic trace
// sampling: the pipe[SpanRecord] instantiation. Its own policy is the
// id-hash sampler and the assembler feed. All methods are nil-safe: a nil
// *Tracer samples nothing and ignores spans, so the disabled path costs
// one branch.
type Tracer struct {
	p   pipe[SpanRecord]
	asm *Assembler
}

// NewTracer builds a tracer. If cfg.Sink or cfg.Assembler is non-nil a
// single drainer goroutine starts sweeping the rings; Close stops it,
// flushes, and finalizes the assembler.
func NewTracer(cfg TracerConfig) *Tracer {
	t := &Tracer{asm: cfg.Assembler}
	var fold func([]SpanRecord)
	if t.asm != nil {
		fold = t.feed
	}
	t.p.init(cfg.Shards, cfg.ShardCapacity, cfg.SamplePermille, cfg.FlushEvery, cfg.Sink,
		func(a, b SpanRecord) int { return cmp.Compare(a.Seq, b.Seq) }, AppendSpan, fold)
	return t
}

// feed folds one sweep into the assembler, on the drainer goroutine. The
// assembler sees the batch boundary (endBatch) so it can hold a freshly
// rooted trace one sweep before finalizing: a segment emitted before the
// root span is guaranteed to be in the rings by the time the root is
// observed, hence collected no later than the next sweep.
func (t *Tracer) feed(recs []SpanRecord) {
	for i := range recs {
		t.asm.observe(&recs[i])
	}
	t.asm.endBatch()
}

// traceMix is the splitmix64 finalizer: a cheap, well-distributed 64-bit
// hash so sequential gate admit sequences sample uniformly instead of in
// runs.
func traceMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4b9fe
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SampleTrace reports whether the root with this trace id is sampled.
// Deterministic in the id alone — the serve process and every worker
// agree on the verdict without coordination — and hash-free at 1000, so
// the trace-everything path stays in budget. The rate is fixed at
// construction. Safe on a nil tracer (never samples).
func (t *Tracer) SampleTrace(id uint64) bool {
	if t == nil || id == 0 {
		return false
	}
	if t.p.permille >= permilleScale {
		return true
	}
	return traceMix(id)%permilleScale < uint64(t.p.permille)
}

// EmitSpan records one segment of a sampled trace. The span is copied by
// value into a ring slot under a shard mutex — no allocation, no
// blocking; if the shard is full the span is dropped and counted (the
// assembler then reports the trace as never completing rather than
// inventing a partial sum). EmitSpan assigns Seq; other fields are the
// caller's. Safe on a nil tracer (no-op) and for concurrent use.
func (t *Tracer) EmitSpan(r *SpanRecord) {
	if t == nil {
		return
	}
	seq := t.p.seq.Add(1)
	if slot, mu := t.p.put(seq, r); slot != nil {
		slot.Seq = seq
		mu.Unlock()
	}
}

// TraceStats is a point-in-time account of the tracer's traffic.
type TraceStats struct {
	Spans   uint64 // spans offered to EmitSpan
	Dropped uint64 // spans lost to ring overflow
}

// Stats reports span/drop counters. Safe on a nil tracer.
func (t *Tracer) Stats() TraceStats {
	if t == nil {
		return TraceStats{}
	}
	return TraceStats{Spans: t.p.seq.Load(), Dropped: t.p.dropped.Load()}
}

// Assembler returns the attached trace assembler (nil when none). Safe
// on a nil tracer.
func (t *Tracer) Assembler() *Assembler {
	if t == nil {
		return nil
	}
	return t.asm
}

// Close stops the drainer (if any), flushes buffered spans, finalizes
// every rooted trace in the assembler, and closes the sink. Safe on a
// nil tracer and safe to call twice.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	err := t.p.close()
	if t.asm != nil {
		t.asm.finalizeAll()
	}
	return err
}
