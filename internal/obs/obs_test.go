package obs

import (
	"bytes"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// fixedClock yields a deterministic timestamp sequence for log tests.
func fixedClock() func() time.Time {
	var mu sync.Mutex
	t := time.Unix(1000, 0)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		t = t.Add(time.Millisecond)
		return t
	}
}

func TestLogEmitSweepOrdersBySeq(t *testing.T) {
	l := newLog(Config{Now: fixedClock()}, 4, 64, 0)
	for i := 0; i < 40; i++ {
		l.Emit(&Record{Kind: KindGrant, Tenant: "gold", From: i, To: i + 1})
	}
	var got []Record
	l.Sweep(func(r *Record) { got = append(got, *r) })
	if len(got) != 40 {
		t.Fatalf("swept %d records, want 40", len(got))
	}
	for i, r := range got {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (sweep must order by seq)", i, r.Seq, i+1)
		}
		if r.From != i || r.To != i+1 {
			t.Fatalf("record %d payload mismatch: %+v", i, r)
		}
		if r.At == 0 {
			t.Fatalf("record %d missing timestamp", i)
		}
	}
	// Rings are reset by the sweep.
	n := 0
	l.Sweep(func(*Record) { n++ })
	if n != 0 {
		t.Fatalf("second sweep returned %d records, want 0", n)
	}
}

func TestLogNilSafe(t *testing.T) {
	var l *Log
	l.Emit(&Record{Kind: KindGrant})
	l.Sweep(func(*Record) { t.Fatal("nil log swept a record") })
	if s := l.Stats(); s != (Stats{}) {
		t.Fatalf("nil log stats = %+v, want zero", s)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("nil log close: %v", err)
	}
}

func TestLogSamplingDeterministic(t *testing.T) {
	l := newLog(Config{SamplePermille: 100, Now: fixedClock()}, 2, 2048, 0)
	for i := 0; i < 1000; i++ {
		l.Emit(&Record{Kind: KindRefit, Tenant: "a"})
	}
	n := 0
	l.Sweep(func(*Record) { n++ })
	if n != 100 {
		t.Fatalf("kept %d of 1000 at 100 permille, want exactly 100 (deterministic thinning)", n)
	}
	st := l.Stats()
	if st.Thinned != 900 {
		t.Fatalf("thinned %d, want 900", st.Thinned)
	}

	// The default keeps everything.
	all := newLog(Config{Now: fixedClock()}, 2, 2048, 0)
	for i := 0; i < 50; i++ {
		all.Emit(&Record{Kind: KindRefit, Tenant: "a"})
	}
	n = 0
	all.Sweep(func(*Record) { n++ })
	if n != 50 {
		t.Fatalf("kept %d of 50 at the default rate, want 50", n)
	}
}

func TestThinAdmitSpreadsEvenly(t *testing.T) {
	// 250 permille keeps exactly one of every four consecutive emissions.
	kept := 0
	for seq := uint64(1); seq <= 400; seq++ {
		if ThinAdmit(seq, 250) {
			kept++
		}
	}
	if kept != 100 {
		t.Fatalf("kept %d of 400 at 250 permille, want 100", kept)
	}
	for start := uint64(1); start <= 396; start += 4 {
		window := 0
		for s := start; s < start+4; s++ {
			if ThinAdmit(s, 250) {
				window++
			}
		}
		if window != 1 {
			t.Fatalf("window starting at %d kept %d, want 1 (even spread)", start, window)
		}
	}
}

func TestLogDrainerFlushesNDJSONToSink(t *testing.T) {
	var buf bytes.Buffer
	l := newLog(Config{Sink: NewWriterSink(&buf), Now: fixedClock()}, 2, 128, time.Millisecond)
	l.Emit(&Record{Kind: KindPreempt, Tenant: "gold", Peer: "bronze",
		From: 8, To: 6, Gain: 0.5, Loss: 0.25, Lambda0: 100, PeerLambda0: 50,
		PauseNS: int64(time.Second), Flag: true})
	l.Emit(&Record{Kind: KindShedPlan, Tenant: "front", Fraction: 0.75, Rate: 1200, Lambda0: 1600})
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	r0, err := ParseRecord([]byte(lines[0]))
	if err != nil {
		t.Fatalf("parse line 0: %v", err)
	}
	if r0.Kind != KindPreempt || r0.Tenant != "gold" || r0.Peer != "bronze" ||
		r0.Gain != 0.5 || r0.Loss != 0.25 || r0.Lambda0 != 100 || r0.PeerLambda0 != 50 ||
		r0.PauseNS != int64(time.Second) || !r0.Flag {
		t.Fatalf("preempt record lost fields through the drainer: %+v", r0)
	}
	r1, err := ParseRecord([]byte(lines[1]))
	if err != nil {
		t.Fatalf("parse line 1: %v", err)
	}
	if r1.Kind != KindShedPlan || r1.Fraction != 0.75 || r1.Rate != 1200 {
		t.Fatalf("shed-plan record lost fields: %+v", r1)
	}
}

func TestKindNamesRoundTrip(t *testing.T) {
	for k := KindRegister; k < kindCount; k++ {
		name := k.String()
		if name == "" || name == "invalid" {
			t.Fatalf("kind %d has no wire name", k)
		}
		back, ok := KindFromString(name)
		if !ok || back != k {
			t.Fatalf("kind %d name %q does not round-trip (got %d, %v)", k, name, back, ok)
		}
	}
	if _, ok := KindFromString("invalid"); ok {
		t.Fatal(`KindFromString("invalid") must be rejected`)
	}
	if _, ok := KindFromString("no-such-kind"); ok {
		t.Fatal("unknown kind name accepted")
	}
}

func TestFileSinkRotates(t *testing.T) {
	dir := t.TempDir()
	s, err := NewFileSink(dir, 64)
	if err != nil {
		t.Fatalf("new file sink: %v", err)
	}
	line := []byte(strings.Repeat("x", 40) + "\n")
	for i := 0; i < 4; i++ {
		s.Write(line)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	// 41 bytes per write, 64-byte cap: one write per file after the first
	// fills — expect at least 3 segment files, none above the cap by more
	// than one batch.
	if len(names) < 3 {
		t.Fatalf("want rotation to produce >= 3 segments, got %v", names)
	}
}
