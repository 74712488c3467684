package engine

// BatchSource feeds a NetworkSpout with externally produced tuple payloads
// — the bridge between an ingestion tier (a network front end decoding
// client records) and the topology. Implementations are single-consumer:
// exactly one spout instance drains a source.
type BatchSource interface {
	// PopBatch blocks until payloads are available, moves up to cap(buf)
	// of them into buf under one synchronization round, and returns the
	// filled prefix (aliasing buf, so the caller may reuse its buffer
	// between calls). It returns ok=false only once the source is closed
	// AND fully drained — pending admitted payloads are always delivered
	// first — or promptly after done is closed (shutdown fallback for a
	// source that is never closed).
	PopBatch(done <-chan struct{}, buf []Values) (batch []Values, ok bool)
}

// AckBatchSource is a BatchSource that also wants to know when each
// popped batch has been fully processed — the durable ingest path, where
// the completion callback advances the WAL ack watermark. A source
// implementing it is drained through PopBatchAcked.
type AckBatchSource interface {
	BatchSource
	// PopBatchAcked is PopBatch returning additionally the completion
	// callback for the popped batch: it fires exactly once, after every
	// root in the batch completes, on an engine goroutine, so it must be
	// fast and non-blocking. It fires at once for an empty batch and never
	// for a batch with a root that did not complete, one Stop stranded
	// included — an unprocessed record must not advance a durability
	// watermark. ack may be nil for a batch that needs no completion
	// tracking.
	PopBatchAcked(done <-chan struct{}, buf []Values) (batch []Values, ack func(), ok bool)
}

// TracedBatchSource is a BatchSource whose payloads carry trace ids
// assigned at the ingest gate (0 = untraced; nonzero only for roots that
// won the deterministic sampling hash). A NetworkSpout drains it through
// PopBatchTraced, so the trace context crosses the ring without widening
// the payload.
type TracedBatchSource interface {
	BatchSource
	// PopBatchTraced is PopBatchAcked additionally filling ids with the
	// trace id of each popped payload, aligned with the returned batch
	// (traces aliases ids as batch aliases buf). ack may be nil.
	PopBatchTraced(done <-chan struct{}, buf []Values, ids []uint64) (batch []Values, traces []uint64, ack func(), ok bool)
}

// NetworkSpout adapts a BatchSource to the Spout interface: it drains the
// source in batches and injects each one whole — payloads, trace ids and
// completion callback — so a whole network read's worth of tuples shares
// one clock stamp and one enqueue per destination executor. A rebalance
// never stops it: the engine swaps executors under a live stream, so the
// source's bounded buffer sees only the data plane's own pace.
type NetworkSpout struct {
	// Source yields the decoded payloads (required).
	Source BatchSource
	// MaxBatch caps the tuples injected per batch (default 256).
	MaxBatch int
}

// Run drains the source until it closes (or the run stops). ctx must be
// the one the engine hands its spouts: a batch's trace ids and completion
// callback go straight to the engine's injection body.
func (s *NetworkSpout) Run(ctx SpoutContext) error {
	c := ctx.(*spoutCtx)
	max := s.MaxBatch
	if max <= 0 {
		max = 256
	}
	acked, _ := s.Source.(AckBatchSource)
	traced, _ := s.Source.(TracedBatchSource)
	buf := make([]Values, 0, max)
	var ids []uint64
	if traced != nil {
		ids = make([]uint64, 0, max)
	}
	for {
		var batch []Values
		var traces []uint64
		var ack func()
		var ok bool
		switch {
		case traced != nil:
			batch, traces, ack, ok = traced.PopBatchTraced(c.Done(), buf, ids)
		case acked != nil:
			batch, ack, ok = acked.PopBatchAcked(c.Done(), buf)
		default:
			batch, ok = s.Source.PopBatch(c.Done(), buf)
		}
		if !ok {
			return nil
		}
		c.inject(batch, traces, ack)
	}
}
