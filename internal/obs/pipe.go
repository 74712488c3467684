package obs

import (
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// pipe.go is the one answer to "how does a record leave a hot path": a
// sharded, bounded, drop-newest ring set with a single drainer. Log and
// Tracer are its two instantiations; each keeps only its own policy (who
// is sampled, what is stamped, who else sees a drained batch).

// Defaults shared by every pipe: 4 shards x 1024 slots, swept every 250ms.
const (
	defaultShards        = 4
	defaultShardCapacity = 1024
	defaultFlushEvery    = 250 * time.Millisecond
)

// permilleScale is the denominator of the sampling knob.
const permilleScale = 1000

// initialShardCapacity is what a shard starts with. A pipe sized for its
// worst sweep (the benchmark's tracer: 8 x 65 536 x 88 B = 44 MiB) would
// otherwise pre-zero that much live heap nobody writes to, and the GC goal
// is twice the live heap: floating garbage then scales with throughput.
const initialShardCapacity = 64

// shard is one ring of a pipe. Emission appends under the shard mutex;
// the drainer swaps the filled region out wholesale. Bounded, drop on
// overflow: a slow drainer costs records (counted), never latency.
type shard[T any] struct {
	mu  sync.Mutex
	buf []T      // append cursor is len(buf); doubles on demand up to pipe.max, never shrinks
	_   [32]byte // pad to keep neighbouring shards off one cache line
}

// pipe carries fixed-shape records of type T from emitters to one
// drainer goroutine, which orders each sweep by emission sequence, hands
// it to the optional fold hook and encodes it as NDJSON to the sink.
type pipe[T any] struct {
	shards []*shard[T]
	mask   uint64
	max    int // per-shard bound (the shard capacity): a shard this full drops

	seq      atomic.Uint64 // emissions offered
	permille int64         // sampling rate, fixed at init
	dropped  atomic.Uint64 // records lost to ring overflow

	// The three per-type hooks are fixed at init and run on the drainer
	// only (bySeq also under a manual sweep) — never on the emit path.
	bySeq func(a, b T) int        // orders two records by stamped emission seq
	enc   func([]byte, *T) []byte // canonical JSON encoder for the sink
	fold  func([]T)               // sees every sweep before the sink; may be nil

	sink       Sink
	flushEvery time.Duration
	drainBuf   []T    // drainer-owned scratch, reused every sweep
	encBuf     []byte // drainer-owned encode scratch
	stop       chan struct{}
	done       chan struct{}
	closeOnce  sync.Once
}

// init sizes the rings (shard count rounded up to a power of two so shard
// choice is a mask, not a mod), applies the defaults, and starts the
// drainer goroutine when there is a sink or a fold hook to drain into;
// otherwise records wait in the rings for a manual collect.
func (p *pipe[T]) init(shards, capacity, permille int, flushEvery time.Duration, sink Sink,
	bySeq func(a, b T) int, enc func([]byte, *T) []byte, fold func([]T)) {
	if shards <= 0 {
		shards = defaultShards
	}
	pow := 1
	for pow < shards {
		pow <<= 1
	}
	if capacity <= 0 {
		capacity = defaultShardCapacity
	}
	if permille <= 0 || permille > permilleScale {
		permille = permilleScale
	}
	if flushEvery <= 0 {
		flushEvery = defaultFlushEvery
	}
	p.shards = make([]*shard[T], pow)
	for i := range p.shards {
		p.shards[i] = &shard[T]{buf: make([]T, 0, min(initialShardCapacity, capacity))}
	}
	p.mask, p.max = uint64(pow-1), capacity
	p.permille = int64(permille)
	p.bySeq, p.enc, p.fold = bySeq, enc, fold
	p.sink, p.flushEvery = sink, flushEvery
	p.stop, p.done = make(chan struct{}), make(chan struct{})
	if sink != nil || fold != nil {
		go p.drain()
	} else {
		close(p.done)
	}
}

// put copies *r into the next free slot of seq's shard — no blocking, and
// no allocation once the shard has grown to its working size — and returns
// the slot with its shard still locked, so the caller stamps Seq (and
// whatever else it owns) into the ring rather than into the emitter's
// record, then unlocks. A shard holding max records drops the record,
// counts it, and returns nil with nothing held.
func (p *pipe[T]) put(seq uint64, r *T) (*T, *sync.Mutex) {
	s := p.shards[seq&p.mask]
	s.mu.Lock()
	if len(s.buf) == cap(s.buf) {
		if len(s.buf) >= p.max {
			s.mu.Unlock()
			p.dropped.Add(1)
			return nil, nil
		}
		grown := make([]T, len(s.buf), min(2*cap(s.buf), p.max))
		copy(grown, s.buf)
		s.buf = grown
	}
	s.buf = append(s.buf, *r)
	return &s.buf[len(s.buf)-1], &s.mu
}

// collect moves all buffered records into the drainer scratch, sorted by
// emission sequence, and resets the rings.
func (p *pipe[T]) collect() []T {
	p.drainBuf = p.drainBuf[:0]
	for _, s := range p.shards {
		s.mu.Lock()
		p.drainBuf = append(p.drainBuf, s.buf...)
		s.buf = s.buf[:0]
		s.mu.Unlock()
	}
	slices.SortFunc(p.drainBuf, p.bySeq)
	return p.drainBuf
}

// drain is the single background drainer: every flushEvery it sweeps the
// rings through flushOnce. One goroutine, one encode buffer — folding and
// encoding cost never lands on an emitter.
func (p *pipe[T]) drain() {
	defer close(p.done)
	t := time.NewTicker(p.flushEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			p.flushOnce()
		case <-p.stop:
			p.flushOnce()
			return
		}
	}
}

// flushOnce sweeps one batch through the fold hook and the sink. The hook
// sees empty sweeps too: a batch boundary is information (the assembler's
// grace period counts them).
func (p *pipe[T]) flushOnce() {
	recs := p.collect()
	if p.fold != nil {
		p.fold(recs)
	}
	if p.sink == nil || len(recs) == 0 {
		return
	}
	p.encBuf = p.encBuf[:0]
	for i := range recs {
		p.encBuf = p.enc(p.encBuf, &recs[i])
		p.encBuf = append(p.encBuf, '\n')
	}
	p.sink.Write(p.encBuf)
}

// close stops the drainer (if any) after a final flush and closes the
// sink. Safe to call twice.
func (p *pipe[T]) close() error {
	p.closeOnce.Do(func() { close(p.stop) })
	<-p.done
	if p.sink != nil {
		return p.sink.Close()
	}
	return nil
}
