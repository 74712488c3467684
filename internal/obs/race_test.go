package obs

import (
	"bytes"
	"sync"
	"testing"
	"time"
)

// TestConcurrentDecidersDrainerScrape is the package's race-detector
// workout: many deciders emitting, the background drainer sweeping to a
// sink, /metrics being scraped and histograms observing — all at once.
// Run under -race it proves the log and registry are data-race free;
// without -race it still shakes out lost records and torn counters. The
// log thins at 500 permille, so every emission lands in one of kept,
// thinned or dropped.
func TestConcurrentDecidersDrainerScrape(t *testing.T) {
	var sinkBuf bytes.Buffer
	sink := NewWriterSink(&sinkBuf)
	l := newLog(Config{SamplePermille: 500, Sink: sink}, 8, 4096, 100*time.Microsecond)
	reg := NewRegistry()
	reg.Func("drs_obs_offered_total", "Decision emissions offered.", Counter, "",
		func() float64 { return float64(l.Stats().Offered) })
	reg.Func("drs_obs_dropped_total", "Decision records dropped.", Counter, "",
		func() float64 { return float64(l.Stats().Dropped) })
	hist := reg.Histogram("drs_test_sojourn_seconds", "test", []float64{0.1, 1}, `tenant="a"`)

	const (
		deciders = 8
		perG     = 2000
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < deciders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				l.Emit(&Record{Kind: KindGrant, Tenant: "a", From: i, To: i + 1})
				hist.Observe(float64(i%3) * 0.4)
			}
		}(g)
	}
	// Scraper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		var buf []byte
		for i := 0; i < 200; i++ {
			buf = reg.Write(buf[:0])
		}
	}()
	close(start)
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	st := l.Stats()
	if st.Offered != deciders*perG {
		t.Fatalf("offered %d, want %d", st.Offered, deciders*perG)
	}
	// Every offered emission is accounted: kept (reached the sink),
	// thinned, or dropped.
	kept := uint64(bytes.Count(sinkBuf.Bytes(), []byte{'\n'}))
	if kept+st.Thinned+st.Dropped != st.Offered {
		t.Fatalf("accounting leak: kept %d + thinned %d + dropped %d != offered %d",
			kept, st.Thinned, st.Dropped, st.Offered)
	}
	// Everything that reached the sink parses.
	for _, line := range bytes.Split(bytes.TrimSpace(sinkBuf.Bytes()), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		if _, err := ParseRecord(line); err != nil {
			t.Fatalf("sink line does not parse: %q: %v", line, err)
		}
	}
	if got := hist.Count(); got != deciders*perG {
		t.Fatalf("histogram count %d, want %d", got, deciders*perG)
	}
}

// TestConcurrentTracerEmitAssembleScrape is the tracer's counterpart
// workout: many executors sampling and emitting spans, the drainer
// sweeping into the assembler and a sink, and /metrics scraping tracer
// and assembler stats — all at once. Every emitter finishes its
// roots with a root span, so after Close the assembler must balance:
// nothing pending, everything started completed, all spans accounted.
func TestConcurrentTracerEmitAssembleScrape(t *testing.T) {
	var sinkBuf bytes.Buffer
	asm := NewAssembler(AssemblerConfig{})
	tr := NewTracer(TracerConfig{
		Shards: 8, ShardCapacity: 1 << 16, SamplePermille: 250,
		Sink: NewWriterSink(&sinkBuf), Assembler: asm,
		FlushEvery: 100 * time.Microsecond,
	})
	reg := NewRegistry()
	reg.Func("drs_trace_spans_total", "Spans emitted.", Counter, "",
		func() float64 { return float64(tr.Stats().Spans) })
	reg.Func("drs_trace_pending", "Traces pending.", Gauge, "",
		func() float64 { return float64(asm.Stats().Pending) })

	const (
		emitters = 8
		perG     = 500
	)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < perG; i++ {
				id := uint64(g*perG + i + 1)
				tr.SampleTrace(id)
				tr.EmitSpan(&SpanRecord{Trace: id, Kind: SpanQueue, Bolt: "b", DurNS: 5})
				tr.EmitSpan(&SpanRecord{Trace: id, Kind: SpanService, Bolt: "b", DurNS: 7})
				tr.EmitSpan(&SpanRecord{Trace: id, Kind: SpanRoot, DurNS: 12})
			}
		}(g)
	}
	// Scraper.
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		var buf []byte
		for i := 0; i < 200; i++ {
			buf = reg.Write(buf[:0])
		}
	}()
	close(start)
	wg.Wait()
	if err := tr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	const total = emitters * perG
	st := tr.Stats()
	if st.Spans != 3*total {
		t.Fatalf("spans %d, want %d", st.Spans, 3*total)
	}
	if st.Dropped != 0 {
		t.Fatalf("dropped %d spans with oversized rings, want 0", st.Dropped)
	}
	ast := asm.Stats()
	if ast.Started != total || ast.Completed != total || ast.Pending != 0 || ast.Lost != 0 {
		t.Fatalf("assembler did not balance: %+v", ast)
	}
	// Everything that reached the sink parses.
	lines := 0
	for _, line := range bytes.Split(bytes.TrimSpace(sinkBuf.Bytes()), []byte{'\n'}) {
		if len(line) == 0 {
			continue
		}
		if _, err := ParseSpan(line); err != nil {
			t.Fatalf("sink line does not parse: %q: %v", line, err)
		}
		lines++
	}
	if lines != 3*total {
		t.Fatalf("sink got %d span lines, want %d", lines, 3*total)
	}
}
