package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanCodecRoundTrip(t *testing.T) {
	cases := []SpanRecord{
		{Seq: 1, Trace: 7, Kind: SpanGate, Tenant: "gold", StartNS: 1234567890},
		{Seq: 2, Trace: 7, Kind: SpanWAL, Tenant: "gold", StartNS: 1234567890, DurNS: 4200},
		{Seq: 3, Trace: 7, Kind: SpanQueue, Bolt: "count", Task: 3, StartNS: 1234567999, DurNS: 150},
		{Seq: 4, Trace: 7, Kind: SpanService, Bolt: "count", Task: 3, Remote: true,
			StartNS: 1234568149, DurNS: 90000},
		{Seq: 5, Trace: 7, Kind: SpanShuttle, Bolt: "count", Task: 3, Remote: true, DurNS: 51000},
		{Seq: 6, Trace: 7, Kind: SpanRoot, StartNS: 1234567890, DurNS: 145350},
		{Seq: 18446744073709551615, Trace: 18446744073709551615, Kind: SpanRoot,
			StartNS: 9223372036854775807, DurNS: -9223372036854775808},
		{Seq: 8, Trace: 1, Kind: SpanQueue, Bolt: `we"ird\bolt` + "\n\t\x01", Tenant: "é"},
	}
	for i, want := range cases {
		enc := AppendSpan(nil, &want)
		got, err := ParseSpan(enc)
		if err != nil {
			t.Fatalf("case %d: parse(%s): %v", i, enc, err)
		}
		if got != want {
			t.Fatalf("case %d round-trip mismatch:\n enc  %s\n got  %+v\n want %+v", i, enc, got, want)
		}
		// Canonical: re-encoding the parsed span is byte-identical.
		enc2 := AppendSpan(nil, &got)
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("case %d re-encode not canonical:\n first  %s\n second %s", i, enc, enc2)
		}
	}
}

func TestSpanCodecOmitsZeroFields(t *testing.T) {
	enc := AppendSpan(nil, &SpanRecord{Seq: 9, Trace: 4, Kind: SpanGate, Tenant: "t"})
	want := `{"seq":9,"trace":4,"kind":"gate","tenant":"t"}`
	if string(enc) != want {
		t.Fatalf("encoding = %s, want %s", enc, want)
	}
}

func TestParseSpanRejectsBadInput(t *testing.T) {
	bad := []string{
		``,                                     // empty
		`{`,                                    // truncated
		`[1,2]`,                                // wrong JSON shape
		`{"seq":1,"kind":"root"} trailing`,     // trailing garbage
		`{"seq":1,"kind":"root"}{"seq":2}`,     // two objects on a line
		`{"seq":1,"kind":"no-such-kind"}`,      // unknown kind
		`{"seq":1,"kind":"invalid"}`,           // reserved kind name
		`{"seq":1,"kind":"root","bogus":1}`,    // unknown field
		`{"seq":-1,"kind":"root"}`,             // negative uint
		`{"seq":1,"kind":"root","task":1.5}`,   // non-integer int field
		`{"seq":1,"kind":"root","dur":1e999}`,  // number out of range
		`{"seq":1,"kind":"root","remote":"t"}`, // wrong field type
	}
	for _, in := range bad {
		if _, err := ParseSpan([]byte(in)); err == nil {
			t.Fatalf("ParseSpan(%q) succeeded, want error", in)
		}
	}
}

func TestSpanKindNamesRoundTrip(t *testing.T) {
	for k := SpanGate; k < spanKindCount; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Fatalf("span kind %d has no wire name", k)
		}
		back, ok := SpanKindFromString(name)
		if !ok || back != k {
			t.Fatalf("span kind %d name %q does not round-trip (got %d, %v)", k, name, back, ok)
		}
	}
	if _, ok := SpanKindFromString("invalid"); ok {
		t.Fatal(`SpanKindFromString("invalid") must be rejected`)
	}
	if _, ok := SpanKindFromString("no-such-kind"); ok {
		t.Fatal("unknown span kind name accepted")
	}
}

// FuzzTraceRecord is the span codec's decode ⇒ canonical re-encode
// round-trip: any input either fails to parse or parses to a span whose
// re-encoding is stable. Never panics.
func FuzzTraceRecord(f *testing.F) {
	seed := [][]byte{
		[]byte(`{"seq":1,"trace":7,"kind":"gate","tenant":"gold","start":1234567890}`),
		[]byte(`{"seq":2,"trace":7,"kind":"wal","tenant":"gold","start":1234567890,"dur":4200}`),
		[]byte(`{"seq":3,"trace":7,"kind":"queue","bolt":"count","task":3,"start":99,"dur":150}`),
		[]byte(`{"seq":4,"trace":7,"kind":"service","bolt":"count","task":3,"remote":true,"dur":90000}`),
		[]byte(`{"seq":5,"trace":7,"kind":"shuttle","bolt":"count","remote":true,"dur":51000}`),
		[]byte(`{"seq":6,"trace":7,"kind":"root","start":1234567890,"dur":145350}`),
		[]byte(`{"kind":"root"}`),
		[]byte(`{"seq":1,"trace":1,"kind":"queue","bolt":"é\n\"x\""}`),
		[]byte(`{}`),
		[]byte(`[]`),
	}
	for _, s := range seed {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r1, err := ParseSpan(data)
		if err != nil {
			return // rejection is a valid outcome; panics are not
		}
		enc1 := AppendSpan(nil, &r1)
		r2, err := ParseSpan(enc1)
		if err != nil {
			t.Fatalf("canonical re-encode does not parse: %s: %v", enc1, err)
		}
		if r1 != r2 {
			t.Fatalf("round-trip mismatch:\n in   %q\n r1   %+v\n enc  %s\n r2   %+v", data, r1, enc1, r2)
		}
		enc2 := AppendSpan(nil, &r2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encode unstable:\n first  %s\n second %s", enc1, enc2)
		}
	})
}

func TestSampleTraceDeterministicAndProportional(t *testing.T) {
	a := NewTracer(TracerConfig{SamplePermille: 250})
	b := NewTracer(TracerConfig{SamplePermille: 250})
	defer a.Close()
	defer b.Close()
	kept := 0
	for id := uint64(1); id <= 4000; id++ {
		sa, sb := a.SampleTrace(id), b.SampleTrace(id)
		if sa != sb {
			t.Fatalf("two tracers disagree on id %d: %v vs %v", id, sa, sb)
		}
		if sa {
			kept++
		}
	}
	// The splitmix hash is uniform: 250 permille of 4000 ids is 1000,
	// give or take sampling noise.
	if kept < 800 || kept > 1200 {
		t.Fatalf("sampled %d of 4000 at 250 permille, want ~1000", kept)
	}
}

func TestSampleTraceKnobEdges(t *testing.T) {
	tr := NewTracer(TracerConfig{SamplePermille: 1000})
	defer tr.Close()
	if !tr.SampleTrace(1) {
		t.Fatal("permille 1000 must sample everything")
	}
	if tr.SampleTrace(0) {
		t.Fatal("trace id 0 is the unsampled sentinel; it must never sample")
	}
	tr.SetSample(0)
	if tr.SampleTrace(1) {
		t.Fatal("permille 0 must sample nothing")
	}
	tr.SetSample(2000) // clamped to 1000
	if !tr.SampleTrace(1) {
		t.Fatal("clamped knob must sample everything")
	}
	var nilT *Tracer
	if nilT.SampleTrace(1) {
		t.Fatal("nil tracer must never sample")
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.EmitSpan(&SpanRecord{Trace: 1, Kind: SpanRoot})
	tr.SetSample(10)
	if s := tr.Stats(); s != (TraceStats{}) {
		t.Fatalf("nil tracer stats = %+v, want zero", s)
	}
	if tr.Assembler() != nil {
		t.Fatal("nil tracer must have a nil assembler")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer close: %v", err)
	}
}

// TestTracerAssemblesAndSinks drives the full pipeline: spans for two
// traces (one with a remote hop) through the rings, the drainer, the
// assembler and the NDJSON sink, then checks the reassembled traces'
// telescoping sums, the histogram folds, and that every sink line parses.
func TestTracerAssemblesAndSinks(t *testing.T) {
	reg := NewRegistry()
	bounds := []float64{1e3, 1e6, 1e9}
	var (
		mu        sync.Mutex
		completed []Trace
	)
	asm := NewAssembler(AssemblerConfig{
		QueueWait:     reg.Histogram("q_ns", "t", bounds, ""),
		Service:       reg.Histogram("s_ns", "t", bounds, ""),
		Shuttle:       reg.Histogram("x_ns", "t", bounds, ""),
		BoltQueueWait: map[string]*Histogram{"count": reg.Histogram("bq_ns", "t", bounds, `bolt="count"`)},
		BoltService:   map[string]*Histogram{"count": reg.Histogram("bs_ns", "t", bounds, `bolt="count"`)},
		OnComplete: func(tr Trace) {
			mu.Lock()
			completed = append(completed, tr)
			mu.Unlock()
		},
	})
	var sinkBuf bytes.Buffer
	tr := NewTracer(TracerConfig{
		Sink:       NewWriterSink(&sinkBuf),
		Assembler:  asm,
		FlushEvery: time.Millisecond,
	})

	// Trace 11: gate, wal, one local hop, root. Segments telescope.
	tr.EmitSpan(&SpanRecord{Trace: 11, Kind: SpanGate, Tenant: "gold", StartNS: 1000})
	tr.EmitSpan(&SpanRecord{Trace: 11, Kind: SpanWAL, Tenant: "gold", StartNS: 1000, DurNS: 50})
	tr.EmitSpan(&SpanRecord{Trace: 11, Kind: SpanQueue, Bolt: "count", StartNS: 1050, DurNS: 200})
	tr.EmitSpan(&SpanRecord{Trace: 11, Kind: SpanService, Bolt: "count", StartNS: 1250, DurNS: 700})
	tr.EmitSpan(&SpanRecord{Trace: 11, Kind: SpanRoot, StartNS: 1050, DurNS: 900})
	// Trace 12: one remote hop with a shuttle residue.
	tr.EmitSpan(&SpanRecord{Trace: 12, Kind: SpanGate, Tenant: "bronze", StartNS: 2000})
	tr.EmitSpan(&SpanRecord{Trace: 12, Kind: SpanQueue, Bolt: "count", Remote: true, StartNS: 2000, DurNS: 100})
	tr.EmitSpan(&SpanRecord{Trace: 12, Kind: SpanService, Bolt: "count", Remote: true, StartNS: 2100, DurNS: 300})
	tr.EmitSpan(&SpanRecord{Trace: 12, Kind: SpanShuttle, Bolt: "count", Remote: true, StartNS: 2000, DurNS: 42})
	tr.EmitSpan(&SpanRecord{Trace: 12, Kind: SpanRoot, StartNS: 2000, DurNS: 442})

	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(completed) != 2 {
		t.Fatalf("completed %d traces, want 2: %+v", len(completed), completed)
	}
	byID := map[uint64]Trace{completed[0].ID: completed[0], completed[1].ID: completed[1]}
	t11 := byID[11]
	if t11.Tenant != "gold" || t11.WALNS != 50 || t11.QueueNS != 200 || t11.ServiceNS != 700 ||
		t11.ShuttleNS != 0 || t11.SojournNS != 900 || t11.Spans != 4 || t11.Remote != 0 {
		t.Fatalf("trace 11 reassembled wrong: %+v", t11)
	}
	if t11.QueueNS+t11.ServiceNS+t11.ShuttleNS != t11.SojournNS {
		t.Fatalf("trace 11 does not telescope: %+v", t11)
	}
	t12 := byID[12]
	if t12.Tenant != "bronze" || t12.QueueNS != 100 || t12.ServiceNS != 300 ||
		t12.ShuttleNS != 42 || t12.SojournNS != 442 || t12.Remote != 3 {
		t.Fatalf("trace 12 reassembled wrong: %+v", t12)
	}

	st := asm.Stats()
	if st.Started != 2 || st.Completed != 2 || st.Pending != 0 || st.Lost != 0 {
		t.Fatalf("assembler stats %+v, want 2 started, 2 completed, 0 pending", st)
	}
	if st.Spans != 8 {
		t.Fatalf("assembler folded %d segment spans, want 8", st.Spans)
	}

	lines := strings.Split(strings.TrimSpace(sinkBuf.String()), "\n")
	if len(lines) != 10 {
		t.Fatalf("sink got %d lines, want 10:\n%s", len(lines), sinkBuf.String())
	}
	lastSeq := uint64(0)
	for _, line := range lines {
		r, err := ParseSpan([]byte(line))
		if err != nil {
			t.Fatalf("sink line does not parse: %q: %v", line, err)
		}
		if r.Seq <= lastSeq {
			t.Fatalf("sink spans out of emission order: seq %d after %d", r.Seq, lastSeq)
		}
		lastSeq = r.Seq
	}
}

// TestAssemblerGracePeriod pins the cross-shard straggler contract: a
// trace rooted in sweep N finalizes after the *next* sweep boundary, so a
// segment collected one sweep late still lands in its trace.
func TestAssemblerGracePeriod(t *testing.T) {
	var completed []Trace
	asm := NewAssembler(AssemblerConfig{OnComplete: func(tr Trace) { completed = append(completed, tr) }})
	asm.observe(&SpanRecord{Trace: 5, Kind: SpanQueue, Bolt: "b", DurNS: 10})
	asm.observe(&SpanRecord{Trace: 5, Kind: SpanRoot, DurNS: 30})
	asm.endBatch()
	if len(completed) != 0 {
		t.Fatalf("trace finalized at its rooting sweep; the grace sweep must pass first")
	}
	// The straggler arrives in the next sweep and still counts.
	asm.observe(&SpanRecord{Trace: 5, Kind: SpanService, Bolt: "b", DurNS: 20})
	asm.endBatch()
	if len(completed) != 1 {
		t.Fatalf("trace not finalized after the grace sweep")
	}
	if got := completed[0]; got.QueueNS != 10 || got.ServiceNS != 20 || got.SojournNS != 30 {
		t.Fatalf("straggler segment lost: %+v", got)
	}
}

func TestAssemblerBoundsPendingTable(t *testing.T) {
	asm := NewAssembler(AssemblerConfig{MaxPending: 4})
	for id := uint64(1); id <= 10; id++ {
		asm.observe(&SpanRecord{Trace: id, Kind: SpanQueue, DurNS: 1})
	}
	st := asm.Stats()
	if st.Started != 4 || st.Pending != 4 {
		t.Fatalf("pending table not bounded: %+v", st)
	}
	if st.Lost != 6 {
		t.Fatalf("lost %d spans, want 6", st.Lost)
	}
}

func TestEmitSpanZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	tr := NewTracer(TracerConfig{Shards: 4, ShardCapacity: 1 << 16})
	rec := SpanRecord{Trace: 7, Kind: SpanService, Bolt: "count", Task: 3,
		StartNS: 1234567890, DurNS: 90000}
	allocs := testing.AllocsPerRun(10000, func() {
		tr.EmitSpan(&rec)
	})
	if allocs != 0 {
		t.Fatalf("EmitSpan allocates %.1f/op, want 0", allocs)
	}
}

func TestSampleTraceZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	tr := NewTracer(TracerConfig{SamplePermille: 10})
	defer tr.Close()
	id := uint64(0)
	allocs := testing.AllocsPerRun(10000, func() {
		id++
		tr.SampleTrace(id)
	})
	if allocs != 0 {
		t.Fatalf("SampleTrace allocates %.1f/op, want 0", allocs)
	}
}

func TestAppendSpanSteadyStateZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	rec := SpanRecord{Seq: 42, Trace: 7, Kind: SpanService, Bolt: "count", Tenant: "gold",
		Task: 3, Remote: true, StartNS: 1234567890, DurNS: 90000}
	buf := make([]byte, 0, 4096)
	allocs := testing.AllocsPerRun(10000, func() {
		buf = AppendSpan(buf[:0], &rec)
	})
	if allocs != 0 {
		t.Fatalf("AppendSpan with warm buffer allocates %.1f/op, want 0", allocs)
	}
}
