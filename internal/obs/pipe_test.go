package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// pipeUnderTest is one pipe[T] instantiation seen through the surface the
// two share: emit the i-th record, read the offered/dropped counters,
// close, and parse a sink line back to (seq, i).
type pipeUnderTest struct {
	emit  func(i int)
	stats func() (offered, dropped uint64)
	close func() error
	parse func(line string) (seq uint64, i int, err error)
}

// pipeInstantiations builds a Log and a Tracer over the same ring shape
// and sink. FlushEvery is an hour, so only Close's final flush can
// deliver records: what the sink holds is the tail Close flushed. With
// live == false the receivers are nil.
func pipeInstantiations(live bool, shards, capacity int, sink Sink) map[string]pipeUnderTest {
	var l *Log
	var tr *Tracer
	if live {
		l = NewLog(Config{Shards: shards, ShardCapacity: capacity, Sink: sink, FlushEvery: time.Hour})
		tr = NewTracer(TracerConfig{Shards: shards, ShardCapacity: capacity, Sink: sink, FlushEvery: time.Hour})
	}
	return map[string]pipeUnderTest{
		"Log": {
			emit:  func(i int) { l.Emit(&Record{Kind: KindGrant, Tenant: "t", To: i}) },
			stats: func() (uint64, uint64) { s := l.Stats(); return s.Offered, s.Dropped },
			close: l.Close,
			parse: func(line string) (uint64, int, error) {
				r, err := ParseRecord([]byte(line))
				return r.Seq, r.To, err
			},
		},
		"Tracer": {
			emit:  func(i int) { tr.EmitSpan(&SpanRecord{Trace: 7, Kind: SpanQueue, Task: i}) },
			stats: func() (uint64, uint64) { s := tr.Stats(); return s.Spans, s.Dropped },
			close: tr.Close,
			parse: func(line string) (uint64, int, error) {
				r, err := ParseSpan([]byte(line))
				return r.Seq, r.Task, err
			},
		},
	}
}

// TestPipeContract holds both instantiations to the pipeline's four
// promises: overflow drops the newest record and counts it without
// blocking, at ShardCapacity however far the shard had to grow to get
// there; a sweep is seq-ordered across shards; Close is idempotent and
// flushes the tail to the sink; a nil receiver is safe.
func TestPipeContract(t *testing.T) {
	cases := []struct {
		name             string
		live             bool
		shards, capacity int
		emits            int
		wantDropped      uint64
		wantKept         int // records 1..wantKept reach the sink, in order
	}{
		{name: "overflow drops newest", live: true, shards: 1, capacity: 8, emits: 20, wantDropped: 12, wantKept: 8},
		// 200 is past the initial shard size and not a doubling of it: the
		// shard grows 64 -> 128 -> 200 and the bound is the configured one.
		{name: "fills to exactly ShardCapacity, then drops", live: true, shards: 1, capacity: 200, emits: 230, wantDropped: 30, wantKept: 200},
		{name: "sweep is seq-ordered across shards", live: true, shards: 4, capacity: 64, emits: 40, wantKept: 40},
		{name: "nil receiver", live: false, emits: 3},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		for name, p := range pipeInstantiations(tc.live, tc.shards, tc.capacity, NewWriterSink(&buf)) {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				buf.Reset()
				for i := 1; i <= tc.emits; i++ {
					p.emit(i) // a blocking emit would hang the test here
				}
				wantOffered := uint64(tc.emits)
				if !tc.live {
					wantOffered = 0 // a nil receiver counts nothing
				}
				if offered, dropped := p.stats(); offered != wantOffered || dropped != tc.wantDropped {
					t.Fatalf("offered=%d dropped=%d, want %d and %d", offered, dropped, wantOffered, tc.wantDropped)
				}
				if buf.Len() != 0 {
					t.Fatalf("sink written before Close:\n%s", buf.String())
				}
				if err := p.close(); err != nil {
					t.Fatalf("close: %v", err)
				}
				flushed := buf.String()
				if err := p.close(); err != nil {
					t.Fatalf("second close: %v", err)
				}
				if buf.String() != flushed {
					t.Fatal("second Close wrote to the sink again")
				}
				lines := strings.Fields(flushed)
				if len(lines) != tc.wantKept {
					t.Fatalf("Close flushed %d lines, want %d:\n%s", len(lines), tc.wantKept, flushed)
				}
				for i, line := range lines {
					seq, payload, err := p.parse(line)
					if err != nil {
						t.Fatalf("line %d does not parse: %q: %v", i, line, err)
					}
					// Seq and payload both count emissions from 1: the kept
					// records are the oldest, in emission order.
					if seq != uint64(i+1) || payload != i+1 {
						t.Fatalf("line %d carries seq=%d payload=%d, want %d (seq-ordered, newest dropped)", i, seq, payload, i+1)
					}
				}
			})
		}
	}
}

// TestPipeCollectSteadyStateZeroAllocs guards the drainer's half of the
// allocation budget: a warm sweep (swap the shards out, sort by seq into
// the reused scratch) allocates nothing, for either instantiation. The
// sort comparator is the trap — one that reaches Seq through the address
// of its by-value arguments heap-allocates two records per comparison.
func TestPipeCollectSteadyStateZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	l := NewLog(Config{Shards: 4, ShardCapacity: 256})
	tr := NewTracer(TracerConfig{Shards: 4, ShardCapacity: 256})
	rec, span := Record{Kind: KindGrant, Tenant: "t"}, SpanRecord{Trace: 7, Kind: SpanQueue}
	for name, round := range map[string]func() int{
		"Log": func() int {
			for i := 0; i < 512; i++ {
				l.Emit(&rec)
			}
			return len(l.p.collect())
		},
		"Tracer": func() int {
			for i := 0; i < 512; i++ {
				tr.EmitSpan(&span)
			}
			return len(tr.p.collect())
		},
	} {
		if n := round(); n != 512 { // also warms the scratch
			t.Fatalf("%s: collected %d records, want 512", name, n)
		}
		if allocs := testing.AllocsPerRun(20, func() { round() }); allocs != 0 {
			t.Errorf("%s: a warm sweep allocates %.1f/round, want 0", name, allocs)
		}
	}
}
