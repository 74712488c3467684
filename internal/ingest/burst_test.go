package ingest

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/wal"
)

// frame appends one length-prefixed TCP frame.
func frame(dst, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	return append(dst, payload...)
}

// burstOf builds a burst of n one-field records "<prefix>-<i>".
func burstOf(prefix string, n int) *burst {
	b := new(burst)
	for i := 0; i < n; i++ {
		b.add(engine.Values{[]byte(fmt.Sprintf("%s-%03d", prefix, i))})
	}
	return b
}

// checkBooks fails unless the gate's counters balance.
func checkBooks(t *testing.T, g *Gate, offered, admitted int64) {
	t.Helper()
	s := g.Stats()
	if s.Offered != offered || s.Admitted != admitted {
		t.Fatalf("offered %d admitted %d, want %d and %d", s.Offered, s.Admitted, offered, admitted)
	}
	if shed := s.ShedRateLimit + s.ShedOverload + s.ShedBacklog; s.Offered != s.Admitted+shed {
		t.Fatalf("books do not balance: offered %d != admitted %d + shed %d", s.Offered, s.Admitted, shed)
	}
}

// TestBurstPartialFitVerdictsInFrameOrder: a ring with room for part of a
// burst admits that prefix under consecutive seqs and refuses the rest as
// backlog — ACK…ACK NACK…NACK in frame order — and the books balance.
func TestBurstPartialFitVerdictsInFrameOrder(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 8})
	defer g.Close()
	c := g.Client("burst", 1, 0, 0)
	b := burstOf("r", 12)
	b.admit(c)
	for i, o := range b.offers {
		switch {
		case i < 8 && !o.verdict.Admitted:
			t.Fatalf("offer %d refused with room in the ring: %+v", i, o.verdict)
		case i >= 8 && (o.verdict.Admitted || o.verdict.Reason != ShedBacklog || o.verdict.RetryAfter <= 0):
			t.Fatalf("offer %d past the ring's room: %+v, want a backlog refusal with a retry hint", i, o.verdict)
		}
	}
	checkBooks(t, g, 12, 8)
	if got := c.shed.Load(); got != 4 {
		t.Fatalf("client shed %d, want 4", got)
	}
	if got := g.DrainShed(); got != 4 {
		t.Fatalf("interval shed %d, want 4 (backlog feeds the offered-load probe)", got)
	}
	out, ok := g.Ring().PopBatch(nil, make([]engine.Values, 0, 16))
	if !ok || len(out) != 8 {
		t.Fatalf("ring holds %d, want 8", len(out))
	}
	for i, v := range out {
		if got, want := string(v[0].([]byte)), fmt.Sprintf("r-%03d", i); got != want {
			t.Fatalf("ring slot %d holds %q, want %q (frame order)", i, got, want)
		}
	}
	if got := g.Ring().Pushed(); got != 8 {
		t.Fatalf("pushed seq counter %d, want 8 (refused offers take no seq)", got)
	}
}

// TestBurstMixedVerdictsKeepFrameOrder: the token bucket refuses the tail
// of a burst record by record, and each refusal sits at its own frame's
// position with its own reason.
func TestBurstMixedVerdictsKeepFrameOrder(t *testing.T) {
	now := time.Unix(0, 0)
	g := NewGate(GateConfig{RingCapacity: 64, Now: func() time.Time { return now }})
	defer g.Close()
	c := g.Client("limited", 1, 1, 3) // a 3-token bucket that does not refill at a frozen clock
	b := burstOf("r", 5)
	b.admit(c)
	for i, o := range b.offers {
		if want := i < 3; o.verdict.Admitted != want {
			t.Fatalf("offer %d admitted=%v, want %v", i, o.verdict.Admitted, want)
		}
		if i >= 3 && (o.verdict.Reason != ShedRateLimit || o.verdict.RetryAfter <= 0) {
			t.Fatalf("offer %d: %+v, want a rate-limit refusal with a retry hint", i, o.verdict)
		}
	}
	checkBooks(t, g, 5, 3)
	if s := g.Stats(); s.ShedRateLimit != 2 {
		t.Fatalf("shed_rate_limit %d, want 2", s.ShedRateLimit)
	}
	if got := g.DrainShed(); got != 0 {
		t.Fatalf("interval shed %d, want 0 (a client past its own contract is not cluster demand)", got)
	}
}

// TestTCPPipelinedBurstRepliesInFrameOrder drives the partial-fit case
// through the listener: 12 frames in one write against a ring of 8 nobody
// drains come back as 8 ACKs then 4 NACKs.
func TestTCPPipelinedBurstRepliesInFrameOrder(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 8})
	defer g.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, g, ListenerConfig{})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	out := frame(nil, []byte("pipeliner"))
	for i := 0; i < 12; i++ {
		out = frame(out, []byte(fmt.Sprintf("rec-%02d", i)))
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	replies := make([]byte, 5*12)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadFull(conn, replies); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		status, retry := replies[5*i], binary.BigEndian.Uint32(replies[5*i+1:])
		if i < 8 && (status != TCPAck || retry != 0) {
			t.Fatalf("reply %d: status %d retry %d, want an ACK", i, status, retry)
		}
		if i >= 8 && (status != TCPNack || retry == 0) {
			t.Fatalf("reply %d: status %d retry %d, want a NACK with a retry hint", i, status, retry)
		}
	}
	checkBooks(t, g, 12, 8)
}

// TestTCPFrameSplitAcrossReads: frames that arrive a byte at a time —
// net.Pipe hands the server exactly what each Write carried — are
// reassembled, admitted and answered one by one.
func TestTCPFrameSplitAcrossReads(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 64})
	defer g.Close()
	cl, srv := net.Pipe()
	defer cl.Close()
	go serveConn(srv, g, ListenerConfig{}.withDefaults())
	cl.SetDeadline(time.Now().Add(5 * time.Second))
	big := bytes.Repeat([]byte{'B'}, 3*tcpReadBuffer) // larger than the read buffer: read as it arrives
	stream := frame(nil, []byte("dribbler"))
	stream = frame(stream, []byte("first"))
	if _, err := cl.Write(stream[:len(stream)-2]); err != nil { // the record frame lacks its last 2 bytes
		t.Fatal(err)
	}
	for _, b := range stream[len(stream)-2:] {
		if _, err := cl.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	var reply [5]byte
	readAck := func(what string) {
		t.Helper()
		if _, err := io.ReadFull(cl, reply[:]); err != nil || reply[0] != TCPAck {
			t.Fatalf("%s: reply %v err %v, want an ACK", what, reply, err)
		}
	}
	readAck("frame completed a byte at a time")
	for _, b := range frame(nil, []byte("2nd")) { // header and payload both split
		if _, err := cl.Write([]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	readAck("frame sent wholly a byte at a time")
	bigFrame := frame(nil, big)
	for off := 0; off < len(bigFrame); off += 50_000 {
		if _, err := cl.Write(bigFrame[off:min(off+50_000, len(bigFrame))]); err != nil {
			t.Fatal(err)
		}
	}
	readAck("frame larger than the read buffer")
	out, _ := g.Ring().PopBatch(nil, make([]engine.Values, 0, 4))
	if len(out) != 3 || string(out[0][0].([]byte)) != "first" || string(out[1][0].([]byte)) != "2nd" || !bytes.Equal(out[2][0].([]byte), big) {
		t.Fatalf("ring holds %d records; payloads did not survive the split reads", len(out))
	}
	if rec := out[2][0].([]byte); cap(rec) != len(rec) {
		t.Fatalf("large record delivered with spare capacity: len %d cap %d", len(rec), cap(rec))
	}
}

// TestTCPSynchronousAndPipelinedClientsNeverDeadlock: a client that waits
// for each verdict before sending the next frame, and one that keeps 64
// frames in flight, both run to completion against the per-burst loop, and
// every frame gets exactly one verdict. (A NACK is a fine verdict here: the
// consumer goroutine can go unscheduled for a millisecond, and a full ring
// must refuse, not wait.)
func TestTCPSynchronousAndPipelinedClientsNeverDeadlock(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 1 << 10})
	defer g.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		buf := make([]engine.Values, 0, 256)
		for {
			if _, ok := g.Ring().PopBatch(stop, buf); !ok {
				return
			}
		}
	}()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, g, ListenerConfig{})

	var acks int64
	sync, err := DialTCP(l.Addr().String(), "synchronous")
	if err != nil {
		t.Fatal(err)
	}
	defer sync.Close()
	sync.conn.SetDeadline(time.Now().Add(20 * time.Second))
	for i := 0; i < 2000; i++ {
		admitted, _, err := sync.Send([]byte("one at a time"))
		if err != nil {
			t.Fatalf("synchronous send %d: %v", i, err)
		}
		if admitted {
			acks++
		}
	}

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(20 * time.Second))
	if _, err := conn.Write(frame(nil, []byte("pipelined"))); err != nil {
		t.Fatal(err)
	}
	const depth, rounds = 64, 200
	var window []byte
	for i := 0; i < depth; i++ {
		window = frame(window, bytes.Repeat([]byte{byte(i)}, 128))
	}
	replies := make([]byte, 5*depth)
	for r := 0; r < rounds; r++ {
		if _, err := conn.Write(window); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, replies); err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		for i := 0; i < depth; i++ {
			switch status, retry := replies[5*i], binary.BigEndian.Uint32(replies[5*i+1:]); {
			case status == TCPAck && retry == 0:
				acks++
			case status == TCPNack && retry > 0:
			default:
				t.Fatalf("round %d reply %d: status %d retry %d is neither an ACK nor a NACK", r, i, status, retry)
			}
		}
	}
	checkBooks(t, g, 2000+depth*rounds, acks)
}

// TestDurableBurstLandsAsConsecutiveSeqs: a durable burst of n is one
// AppendBatch of n consecutive seqs, in frame order, on disk before admit
// returns — the log is dropped without a drain or a watermark and reopened.
func TestDurableBurstLandsAsConsecutiveSeqs(t *testing.T) {
	dir := t.TempDir()
	g, l, _ := durableGate(t, dir, 64)
	c := g.Client("durable", 1, 0, 0)
	if v := c.Offer(g.valuesForTest("single")); !v.Admitted { // seq 1: the burst does not start the seq space
		t.Fatalf("single offer refused: %+v", v)
	}
	b := burstOf("d", 10)
	b.admit(c)
	for i, o := range b.offers {
		if !o.verdict.Admitted {
			t.Fatalf("durable offer %d refused: %+v", i, o.verdict)
		}
	}
	checkBooks(t, g, 11, 11)
	if got := l.TailSeq(); got != 11 {
		t.Fatalf("log tail seq %d, want 11", got)
	}
	if err := l.Close(); err != nil { // the process "dies": no drain, no watermark
		t.Fatal(err)
	}
	l2, rec, err := wal.Open(wal.Options{Dir: dir, SyncEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	unacked := readUnacked(t, l2)
	if rec.Records != 11 || len(unacked) != 11 {
		t.Fatalf("recovered %d records, %d unacked, want 11 and 11", rec.Records, len(unacked))
	}
	for i, r := range unacked[1:] {
		if want := fmt.Sprintf("d-%03d", i); r.Seq != uint64(i+2) || string(r.Payload) != want {
			t.Fatalf("recovered record %d: seq %d payload %q, want seq %d payload %q", i, r.Seq, r.Payload, i+2, want)
		}
	}
}

// TestDurableBurstFailingWALAcknowledgesNobody: when the covering WAL
// append fails — here the log is closed under the gate — no record of the
// burst is acknowledged, even though the ring took them, and the books
// still balance.
func TestDurableBurstFailingWALAcknowledgesNobody(t *testing.T) {
	g, l, _ := durableGate(t, t.TempDir(), 64)
	c := g.Client("durable", 1, 0, 0)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	b := burstOf("lost", 6)
	b.admit(c)
	for i, o := range b.offers {
		if o.verdict.Admitted || o.verdict.Reason != ShedBacklog || o.verdict.RetryAfter <= 0 {
			t.Fatalf("offer %d acknowledged without its WAL write: %+v", i, o.verdict)
		}
	}
	checkBooks(t, g, 6, 0)
	if v := c.Offer(g.valuesForTest("one")); v.Admitted {
		t.Fatalf("single offer acknowledged without its WAL write: %+v", v)
	}
	checkBooks(t, g, 7, 0)
	if got := c.shed.Load(); got != 7 {
		t.Fatalf("client shed %d, want 7", got)
	}
}

// TestBurstSampledAdmitsEmitGateAndWALSpans: every sampled record of a
// burst gets its gate span and, in durable mode, its WAL span — one pair
// per record, not per burst — and the spans of one burst share its stamps.
func TestBurstSampledAdmitsEmitGateAndWALSpans(t *testing.T) {
	for _, durable := range []bool{false, true} {
		var sink bytes.Buffer
		tr := obs.NewTracer(obs.TracerConfig{Sink: obs.NewWriterSink(&sink), FlushEvery: time.Hour})
		g := NewGate(GateConfig{RingCapacity: 64, Tracer: tr})
		if durable {
			l, _, err := wal.Open(wal.Options{Dir: t.TempDir(), SyncEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if err := g.AttachWAL(l); err != nil {
				t.Fatal(err)
			}
		}
		b := burstOf("t", 5)
		b.admit(g.Client("traced", 1, 0, 0))
		g.Close()
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		gate, walSpans := map[uint64]int{}, map[uint64]int{}
		for _, line := range strings.Fields(sink.String()) {
			sp, err := obs.ParseSpan([]byte(line))
			if err != nil {
				t.Fatal(err)
			}
			switch sp.Kind {
			case obs.SpanGate:
				gate[sp.Trace]++
			case obs.SpanWAL:
				walSpans[sp.Trace]++
			}
			if sp.Tenant != "traced" {
				t.Fatalf("span of tenant %q, want the client id", sp.Tenant)
			}
		}
		for seq := uint64(1); seq <= 5; seq++ {
			wantWAL := 0
			if durable {
				wantWAL = 1
			}
			if gate[seq] != 1 || walSpans[seq] != wantWAL {
				t.Fatalf("durable=%v trace %d: %d gate and %d WAL spans, want 1 and %d", durable, seq, gate[seq], walSpans[seq], wantWAL)
			}
		}
	}
}

// TestReplayPushesInBursts: Replay re-injects more records than the ring
// holds, in log order, while a consumer drains — bursts that fit partly
// are retried from where they stopped, nothing is skipped or repeated.
func TestReplayPushesInBursts(t *testing.T) {
	dir := t.TempDir()
	const n = 3*burstMax + 17
	g1, l1, _ := durableGate(t, dir, 1<<10)
	c := g1.Client("seed", 1, 0, 0)
	for i := 0; i < n; i++ {
		if v := c.Offer(g1.valuesForTest(fmt.Sprintf("p-%04d", i))); !v.Admitted {
			t.Fatalf("seed offer %d refused: %+v", i, v)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	g2, l2, _ := durableGate(t, dir, 64) // a ring far smaller than the replay
	defer l2.Close()
	got := make(chan []string, 1)
	go func() {
		var seen []string
		buf := make([]engine.Values, 0, 32)
		for len(seen) < n {
			out, ok := g2.Ring().PopBatch(nil, buf)
			if !ok {
				break
			}
			for _, v := range out {
				seen = append(seen, string(v[0].([]byte)))
			}
		}
		got <- seen
	}()
	replayed, err := g2.Replay()
	if err != nil || replayed != n {
		t.Fatalf("replayed %d err %v, want %d", replayed, err, n)
	}
	seen := <-got
	for i, s := range seen {
		if want := fmt.Sprintf("p-%04d", i); s != want {
			t.Fatalf("replayed record %d is %q, want %q (log order)", i, s, want)
		}
	}
	if len(seen) != n || g2.Stats().Replayed != n {
		t.Fatalf("consumer saw %d, gate counted %d, want %d", len(seen), g2.Stats().Replayed, n)
	}
}

// TestNDJSONMaximalLineIsNotSilentlyDropped: an NDJSON body whose one line
// is as long as a record may be used to answer 202 with admitted 0 — the
// scanner gave up on the line, and on every line after it, without a word.
// Whatever is offered is now accounted for: admitted + shed == lines.
func TestNDJSONMaximalLineIsNotSilentlyDropped(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 64})
	defer g.Close()
	h := Handler(g, ListenerConfig{})
	post := func(body []byte) (int, string) {
		req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/x-ndjson")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code, w.Body.String()
	}
	maximal := bytes.Repeat([]byte{'x'}, maxRecordBytes)
	if code, body := post(maximal); code != 202 || !strings.Contains(body, `"admitted":1,"shed":0`) {
		t.Fatalf("one maximal line: %d %s, want 202 with 1 admitted", code, body)
	}
	// A long line followed by short ones: the scanner used to drop all three.
	body := append(bytes.Repeat([]byte{'y'}, maxRecordBytes-4), "\na\nb"...)
	if code, resp := post(body); code != 202 || !strings.Contains(resp, `"admitted":3,"shed":0`) {
		t.Fatalf("a near-maximal line and two short ones: %d %s, want 202 with 3 admitted", code, resp)
	}
	if code, _ := post(append(maximal, '\n')); code != 413 {
		t.Fatalf("a body one byte over the limit: %d, want 413", code)
	}
	out, _ := g.Ring().PopBatch(nil, make([]engine.Values, 0, 8))
	if len(out) != 4 || len(out[0][0].([]byte)) != maxRecordBytes || string(out[3][0].([]byte)) != "b" {
		t.Fatalf("ring holds %d records, want the maximal line and the three of the second body", len(out))
	}
}

// TestHTTPBodyWithoutContentLength: a chunked body is read by doubling, to
// the same limit.
func TestHTTPBodyWithoutContentLength(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 64})
	defer g.Close()
	h := Handler(g, ListenerConfig{})
	post := func(body []byte) int {
		// io.MultiReader hides the length, as a chunked upload does.
		req := httptest.NewRequest("POST", "/ingest", io.MultiReader(bytes.NewReader(body)))
		if req.ContentLength != -1 {
			t.Fatalf("test setup: content length %d, want unknown", req.ContentLength)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		return w.Code
	}
	payload := bytes.Repeat([]byte("0123456789"), 30_000) // 300 kB: several doublings
	if code := post(payload); code != 202 {
		t.Fatalf("chunked body: %d, want 202", code)
	}
	out, _ := g.Ring().PopBatch(nil, make([]engine.Values, 0, 2))
	if len(out) != 1 || !bytes.Equal(out[0][0].([]byte), payload) {
		t.Fatal("chunked body did not arrive intact")
	}
	if code := post(make([]byte, maxRecordBytes)); code != 202 {
		t.Fatalf("chunked body at the limit: %d, want 202", code)
	}
	if code := post(make([]byte, maxRecordBytes+1)); code != 413 {
		t.Fatalf("chunked body over the limit: %d, want 413", code)
	}
}
