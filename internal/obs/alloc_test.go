package obs

import (
	"testing"
	"time"
)

// The package's own allocation floor: emitting a decision and observing a
// histogram sample must not allocate. The subsystem guard tests (ingest
// admit, supervisor tick, scheduler arbitration, WAL append) build on
// these.

func TestEmitZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	clock := time.Unix(0, 0)
	l := newLog(Config{Now: func() time.Time { clock = clock.Add(time.Microsecond); return clock }}, 4, 1<<16, 0)
	rec := Record{Kind: KindPreempt, Tenant: "gold", Peer: "bronze",
		From: 8, To: 6, Gain: 0.5, Loss: 0.25, Lambda0: 100, PeerLambda0: 50,
		PauseNS: 1e9, Flag: true}
	allocs := testing.AllocsPerRun(10000, func() {
		l.Emit(&rec)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f/op, want 0", allocs)
	}
}

func TestHistogramObserveZeroAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	reg := NewRegistry()
	h := reg.Histogram("x_seconds", "test", []float64{0.01, 0.1, 1, 10}, `tenant="a"`)
	v := 0.0
	allocs := testing.AllocsPerRun(10000, func() {
		h.Observe(v)
		v += 0.001
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f/op, want 0", allocs)
	}
}
