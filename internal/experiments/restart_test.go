package experiments

import (
	"bytes"
	"testing"
)

// TestRestartArc runs the kill -9/restart experiment and checks the
// durability story end to end: the kill lands mid-surge with a ring
// backlog and an at-least-once window, recovery truncates the torn tail
// and replays exactly the records past the durable watermark, nothing
// admitted is ever lost, duplicates equal the acked-after-last-sync
// window, and a third boot has nothing left to replay.
func TestRestartArc(t *testing.T) {
	r := restart(t)
	if r.Lost != 0 {
		t.Fatalf("%d admitted records lost across the kill", r.Lost)
	}
	if !r.BooksAgree {
		t.Fatalf("books do not balance: %+v", r)
	}
	if r.Life1.RingBacklog == 0 {
		t.Fatal("the kill landed with an empty ring — no backlog was at risk")
	}
	if r.Life1.WatermarkMemory <= r.Life1.WatermarkDurable {
		t.Fatal("no at-least-once window: every ack was already durable at the kill")
	}
	window := int(r.Life1.WatermarkMemory - r.Life1.WatermarkDurable)
	if r.ExpectedDuplicates != window {
		t.Fatalf("expected duplicates %d != at-least-once window %d", r.ExpectedDuplicates, window)
	}
	if r.Duplicates != int64(window) {
		t.Fatalf("observed duplicates %d != at-least-once window %d", r.Duplicates, window)
	}
	if r.Recovery.TruncatedBytes != int64(r.TornBytes) {
		t.Fatalf("recovery truncated %d bytes, injected %d", r.Recovery.TruncatedBytes, r.TornBytes)
	}
	wantReplay := int(r.Life1.Admitted) - int(r.Recovery.Watermark)
	if r.Replayed != wantReplay {
		t.Fatalf("replayed %d records, want everything past the durable watermark: %d", r.Replayed, wantReplay)
	}
	if r.RefusedDown == 0 {
		t.Fatal("the dead front door refused nothing — the outage had no cost")
	}
	if r.Life1.Shed+r.Life2.Shed != 0 {
		t.Fatalf("the arc shed %d records; the ring should never fill", r.Life1.Shed+r.Life2.Shed)
	}
	if r.FinalWatermark != r.FinalPushed {
		t.Fatalf("final watermark %d != pushed %d: a pushed seq never completed", r.FinalWatermark, r.FinalPushed)
	}
	if r.VerifyUnacked != 0 {
		t.Fatalf("third boot found %d unacked records after a drained finish", r.VerifyUnacked)
	}
	if r.Recovery.Segments <= 1 || r.FinalSegments != 1 {
		t.Fatalf("rotation/pruning not exercised: recovered %d segment(s), final %d",
			r.Recovery.Segments, r.FinalSegments)
	}
}

// TestRestartGoldenOutput locks the restart summary rendering — the arc
// is deterministic (envelope-driven arrivals, fixed drain capacity, no
// RNG), so any drift in recovery, replay or the audit shows up as a
// textual diff.
func TestRestartGoldenOutput(t *testing.T) {
	r := restart(t)
	var buf bytes.Buffer
	r.Print(&buf)
	golden(t, "restart.golden", buf.Bytes())
}
