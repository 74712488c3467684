package ingest

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/obs"
)

// scriptedControl serves a fixed snapshot.
type scriptedControl struct {
	mu   sync.Mutex
	snap core.Snapshot
	ok   bool
}

func (c *scriptedControl) LastSnapshot() (core.Snapshot, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.snap, c.ok
}

func (c *scriptedControl) set(s core.Snapshot) {
	c.mu.Lock()
	c.snap, c.ok = s, true
	c.mu.Unlock()
}

// twoStageSnap builds a snapshot of a two-stage chain at the given
// admitted rate, µ per stage, allocation and grant.
func twoStageSnap(lambda, mu float64, k, kmax int) core.Snapshot {
	return core.Snapshot{
		Lambda0:        lambda,
		OfferedLambda0: lambda,
		Ops: []core.OpRates{
			{Name: "stage1", Lambda: lambda, Mu: mu},
			{Name: "stage2", Lambda: lambda, Mu: mu},
		},
		MeasuredSojourn: 0.5,
		Alloc:           []int{k, k},
		Kmax:            kmax,
	}
}

func TestRingOrderAndBackpressure(t *testing.T) {
	r := NewRing(4)
	if len(r.buf) != 4 {
		t.Fatalf("cap %d, want 4", len(r.buf))
	}
	for i := 0; i < 4; i++ {
		if !r.TryPush(engine.Values{i}) {
			t.Fatalf("push %d refused below capacity", i)
		}
	}
	if r.TryPush(engine.Values{4}) {
		t.Fatal("push into a full ring must fail")
	}
	done := make(chan struct{})
	buf := make([]engine.Values, 0, 3)
	out, ok := r.PopBatch(done, buf)
	if !ok || len(out) != 3 {
		t.Fatalf("PopBatch: %d items, ok=%v; want 3, true", len(out), ok)
	}
	for i, v := range out {
		if v[0].(int) != i {
			t.Fatalf("out[%d] = %v, want %d (FIFO)", i, v[0], i)
		}
	}
	// Close with one item left: the drain completes before ok=false.
	r.Close()
	if r.TryPush(engine.Values{9}) {
		t.Fatal("push into a closed ring must fail")
	}
	out, ok = r.PopBatch(done, buf)
	if !ok || len(out) != 1 || out[0][0].(int) != 3 {
		t.Fatalf("drain after close: %v ok=%v; want item 3, true", out, ok)
	}
	if _, ok = r.PopBatch(done, buf); ok {
		t.Fatal("drained closed ring must report ok=false")
	}
}

// TestRingDoneWakesBlockedConsumer: closing done ends a PopBatch on an
// empty ring with ok=false. The consumer may be parked in its select when
// done closes or reach it after; the ring takes the same done arm either
// way, so the test does not wait for the park.
func TestRingDoneWakesBlockedConsumer(t *testing.T) {
	r := NewRing(4)
	done := make(chan struct{})
	got := make(chan bool, 1)
	go func() {
		_, ok := r.PopBatch(done, make([]engine.Values, 0, 1))
		got <- ok
	}()
	close(done)
	select {
	case ok := <-got:
		if ok {
			t.Fatal("done-closed PopBatch returned ok=true")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("PopBatch ignored done")
	}
}

func TestTokenBucket(t *testing.T) {
	b := newTokenBucket(10, 2) // 10/s, burst 2
	now := time.Unix(0, 0)
	if ok, _ := b.take(now.UnixNano()); !ok {
		t.Fatal("first token refused")
	}
	if ok, _ := b.take(now.UnixNano()); !ok {
		t.Fatal("burst token refused")
	}
	ok, retry := b.take(now.UnixNano())
	if ok {
		t.Fatal("empty bucket admitted")
	}
	if retry <= 0 || retry > 200*time.Millisecond {
		t.Fatalf("retry-after %v, want ~100ms at 10 tokens/s", retry)
	}
	// 100 ms later one token has refilled.
	if ok, _ := b.take(now.Add(100 * time.Millisecond).UnixNano()); !ok {
		t.Fatal("refilled token refused")
	}
	unlimited := newTokenBucket(0, 0)
	for i := 0; i < 1000; i++ {
		if ok, _ := unlimited.take(now.UnixNano()); !ok {
			t.Fatal("disabled bucket must always admit")
		}
	}
}

func TestThinAdmitSpreadsEvenly(t *testing.T) {
	// 250 permille keeps exactly one of every four consecutive emissions.
	kept := 0
	for seq := uint64(1); seq <= 400; seq++ {
		if thinAdmit(seq, 250) {
			kept++
		}
	}
	if kept != 100 {
		t.Fatalf("kept %d of 400 at 250 permille, want 100", kept)
	}
	for start := uint64(1); start <= 396; start += 4 {
		window := 0
		for s := start; s < start+4; s++ {
			if thinAdmit(s, 250) {
				window++
			}
		}
		if window != 1 {
			t.Fatalf("window starting at %d kept %d, want 1 (even spread)", start, window)
		}
	}
}

func TestPlanAdmissionAdmitsWithinGrant(t *testing.T) {
	// λ = 3/s on (3,3) of 6 slots, µ = 2: comfortably sustainable.
	p := planAdmission(twoStageSnap(3, 2, 3, 6), 1.5, 16, 3)
	if p.AdmitFraction != 1 {
		t.Fatalf("admit fraction %.2f, want 1 within the grant", p.AdmitFraction)
	}
	if !p.ScaleOutViable {
		t.Fatal("scale-out trivially viable when demand already fits")
	}
}

func TestPlanAdmissionShedsBeyondGrant(t *testing.T) {
	// Offered 18/s against a 6-slot grant: must shed most of it, and with
	// a 16-slot cap the demand (≈22 slots) is beyond the provider.
	snap := twoStageSnap(3, 2, 3, 6)
	p := planAdmission(snap, 1.5, 16, 18)
	if p.AdmitFraction >= 1 || p.AdmitFraction <= 0 {
		t.Fatalf("admit fraction %.2f, want partial shed", p.AdmitFraction)
	}
	if p.SustainableRate <= 0 || p.SustainableRate >= 18 {
		t.Fatalf("sustainable %.2f tuples/s out of range", p.SustainableRate)
	}
	if p.ScaleOutViable {
		t.Fatal("22-slot demand must not be viable under a 16-slot cap")
	}
	// The same demand under a roomy cap is viable (transient shed).
	if p := planAdmission(snap, 1.5, 64, 18); !p.ScaleOutViable {
		t.Fatal("22-slot demand must be viable under a 64-slot cap")
	}
	// And a larger grant sustains more.
	big := planAdmission(twoStageSnap(3, 2, 8, 16), 1.5, 16, 18)
	if big.SustainableRate <= p.SustainableRate {
		t.Fatalf("16-slot grant sustains %.2f <= 6-slot grant's %.2f", big.SustainableRate, p.SustainableRate)
	}
}

func TestPlanAdmissionDrainCorrection(t *testing.T) {
	// Within the grant but the measured sojourn is 3× the target: a
	// backlog is draining, so admission must tighten by planning target
	// (Tmax less the headroom) over measured.
	snap := twoStageSnap(3, 2, 3, 6)
	snap.MeasuredSojourn = 4.5
	p := planAdmission(snap, 1.5, 16, 3)
	if p.AdmitFraction > 0.31 || p.AdmitFraction < 0.29 {
		t.Fatalf("admit fraction %.2f, want ≈ 0.9·1.5/4.5 = 0.30", p.AdmitFraction)
	}
}

func TestPlanAdmissionFailsOpen(t *testing.T) {
	if p := planAdmission(core.Snapshot{}, 1.5, 16, 10); p.AdmitFraction != 1 {
		t.Fatalf("empty snapshot must admit all, got %.2f", p.AdmitFraction)
	}
	if p := planAdmission(twoStageSnap(3, 2, 3, 6), 0, 16, 10); p.AdmitFraction != 1 {
		t.Fatalf("zero Tmax must admit all, got %.2f", p.AdmitFraction)
	}
}

func TestPlanAdmissionStabilityFallback(t *testing.T) {
	// Tmax below the two-stage service floor (2 × 0.5s = 1s): latency is
	// unreachable at any allocation, but overload 18/s against 6 slots
	// must still be bounded by stability (ρ ≤ 0.95 per operator).
	p := planAdmission(twoStageSnap(3, 2, 3, 6), 0.8, 16, 18)
	if p.AdmitFraction >= 1 {
		t.Fatal("stability fallback must still shed an 18/s offer against 6 slots")
	}
	want := stabilityRho * 6 // 0.95 · k·µ = 0.95·3·2 per stage
	if p.SustainableRate > want+1e-9 {
		t.Fatalf("sustainable %.2f exceeds the stability bound %.2f", p.SustainableRate, want)
	}
}

func TestGateShedsByWeight(t *testing.T) {
	now := time.Unix(0, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }
	control := &scriptedControl{}
	g := NewGate(GateConfig{
		Tmax: 1.5, MaxSlots: 16,
		RingCapacity: 1 << 14, ReplanEvery: time.Second, Now: clock,
	})
	g.SetControl(control)
	gold := g.Client("gold", 4, 0, 0)
	bronze := g.Client("bronze", 1, 0, 0)
	payload := engine.Values{[]byte("r")}

	// Round 0: warm the per-client rate estimates (plan stays admit-all —
	// no snapshot yet). Rates: gold 4/s, bronze 28/s.
	for i := 0; i < 4; i++ {
		gold.Offer(payload)
	}
	for i := 0; i < 28; i++ {
		bronze.Offer(payload)
	}
	advance(time.Second)
	g.Replan()
	if f := g.Stats().AdmitFraction; f != 1 {
		t.Fatalf("no snapshot: admit fraction %.2f, want 1", f)
	}

	// Install a snapshot whose grant sustains ~14/s of the 32/s offered;
	// gold (4/s) must fit fully, bronze absorbs the shed.
	control.set(twoStageSnap(3, 2, 8, 16))
	for i := 0; i < 4; i++ {
		gold.Offer(payload)
	}
	for i := 0; i < 28; i++ {
		bronze.Offer(payload)
	}
	advance(time.Second)
	g.Replan()
	st := g.Stats()
	if st.AdmitFraction >= 1 {
		t.Fatalf("admit fraction %.2f, want shedding against 18/s offered", st.AdmitFraction)
	}
	goldBefore, bronzeBefore := gold.shed.Load(), bronze.shed.Load()
	for i := 0; i < 2000; i++ {
		gold.Offer(payload)
		bronze.Offer(payload)
	}
	goldShed := gold.shed.Load() - goldBefore
	bronzeShed := bronze.shed.Load() - bronzeBefore
	if goldShed != 0 {
		t.Fatalf("gold shed %d records; its 4/s fits inside the sustainable rate", goldShed)
	}
	if bronzeShed == 0 {
		t.Fatal("bronze shed nothing; the excess must land on the low-weight client")
	}
	// The interval probe counts exactly the overload sheds.
	if drained := g.DrainShed(); drained != goldShed+bronzeShed {
		t.Fatalf("DrainShed %d, want %d", drained, goldShed+bronzeShed)
	}
	if g.DrainShed() != 0 {
		t.Fatal("DrainShed must reset")
	}
}

func TestGateRingBackpressure(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 4, ReplanEvery: time.Second})
	c := g.Client("c", 1, 0, 0)
	payload := engine.Values{[]byte("r")}
	for i := 0; i < 4; i++ {
		if v := c.Offer(payload); !v.Admitted {
			t.Fatalf("offer %d refused below ring capacity: %+v", i, v)
		}
	}
	v := c.Offer(payload)
	if v.Admitted || v.Reason != ShedBacklog {
		t.Fatalf("full ring: got %+v, want ShedBacklog", v)
	}
	if v.RetryAfter <= 0 {
		t.Fatal("backlog shed must carry a retry-after hint")
	}
}

func TestGateCloseDrainsAdmitted(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 16})
	c := g.Client("c", 1, 0, 0)
	for i := 0; i < 5; i++ {
		c.Offer(engine.Values{i})
	}
	g.Close()
	if v := c.Offer(engine.Values{9}); v.Admitted {
		t.Fatal("closed gate admitted a record")
	}
	done := make(chan struct{})
	buf := make([]engine.Values, 0, 16)
	out, ok := g.Ring().PopBatch(done, buf)
	if !ok || len(out) != 5 {
		t.Fatalf("close lost admitted records: got %d ok=%v, want 5 true", len(out), ok)
	}
	if _, ok := g.Ring().PopBatch(done, buf); ok {
		t.Fatal("drained closed ring must report ok=false")
	}
}

func TestHTTPHandler(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 64})
	srv := httptest.NewServer(Handler(g, ListenerConfig{Rate: 1, Burst: 1}))
	defer srv.Close()
	defer g.Close()

	post := func(id, body string) (int, string, string) {
		req, err := http.NewRequest("POST", srv.URL+"/ingest", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(ClientIDHeader, id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b), resp.Header.Get("Retry-After")
	}
	code, body, _ := post("a", "rec1")
	if code != 202 || !strings.Contains(body, `"admitted":1`) {
		t.Fatalf("first record: %d %s", code, body)
	}
	// The 1/s bucket is now empty: the next record must bounce with 429
	// and a Retry-After hint.
	code, body, retry := post("a", "rec2")
	if code != 429 {
		t.Fatalf("rate-limited record: %d %s, want 429", code, body)
	}
	if retry == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if !strings.Contains(body, `"reason":"rate-limit"`) {
		t.Fatalf("429 body %s lacks the shed reason", body)
	}
	// A different client has its own bucket.
	if code, _, _ := post("b", "rec"); code != 202 {
		t.Fatalf("client b: %d, want 202", code)
	}
	if n := g.Stats().Offered; n != 3 {
		t.Fatalf("gate counted %d offered records, want 3", n)
	}
	// The admitted payloads are in the ring.
	if n := g.Ring().Len(); n != 2 {
		t.Fatalf("ring holds %d records, want 2", n)
	}
}

func TestTCPListener(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 64})
	defer g.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, g, ListenerConfig{Rate: 2, Burst: 2})

	c, err := DialTCP(l.Addr().String(), "tcp-client")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 2; i++ {
		admitted, _, err := c.Send([]byte(fmt.Sprintf("rec%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if !admitted {
			t.Fatalf("record %d NACKed below the burst", i)
		}
	}
	admitted, retry, err := c.Send([]byte("rec2"))
	if err != nil {
		t.Fatal(err)
	}
	if admitted {
		t.Fatal("record beyond the bucket burst was ACKed")
	}
	if retry <= 0 {
		t.Fatal("NACK must carry a retry-after hint")
	}
	// The two admitted payloads round-trip into the ring intact.
	done := make(chan struct{})
	out, ok := g.Ring().PopBatch(done, make([]engine.Values, 0, 4))
	if !ok || len(out) != 2 {
		t.Fatalf("ring: %d records ok=%v, want 2 true", len(out), ok)
	}
	if got := string(out[0][0].([]byte)); got != "rec0" {
		t.Fatalf("payload %q, want rec0", got)
	}
}

// quickDeadlineConn is a net.Pipe end whose read deadlines run 1000x
// fast, so a test sits out the front door's 5 s / 2 min stalls in 5 ms /
// 120 ms while the spans serveConn asked for are recorded as asked.
type quickDeadlineConn struct {
	net.Conn
	mu    sync.Mutex
	asked []time.Duration
}

func (c *quickDeadlineConn) SetReadDeadline(t time.Time) error {
	d := time.Until(t)
	c.mu.Lock()
	c.asked = append(c.asked, d)
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(time.Now().Add(d / 1000))
}

// TestTCPStalledClientIsDisconnected: a client that connects and never
// sends its hello, and one that goes silent mid-stream (mid-frame, even),
// each used to pin a goroutine and a descriptor in readFrame forever. The
// hello deadline and the per-frame idle deadline now end both.
func TestTCPStalledClientIsDisconnected(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 64})
	defer g.Close()
	serve := func() (client net.Conn, server *quickDeadlineConn, done chan struct{}) {
		c, s := net.Pipe()
		server = &quickDeadlineConn{Conn: s}
		done = make(chan struct{})
		go func() {
			serveConn(server, g, ListenerConfig{}.withDefaults())
			close(done)
		}()
		return c, server, done
	}
	wait := func(what string, done chan struct{}) {
		t.Helper()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: serveConn still blocked on the stalled client", what)
		}
	}
	near := func(got, want time.Duration) bool { return got > want-time.Second && got <= want }

	silent, server, done := serve()
	defer silent.Close()
	wait("no hello", done)
	if len(server.asked) != 1 || !near(server.asked[0], tcpHelloTimeout) {
		t.Errorf("hello deadlines asked = %v, want one of %v", server.asked, tcpHelloTimeout)
	}

	cl, server, done := serve()
	defer cl.Close()
	tc := &TCPClient{conn: cl}
	if err := tc.writeFrame([]byte("staller")); err != nil {
		t.Fatal(err)
	}
	if admitted, _, err := tc.Send([]byte("rec0")); err != nil || !admitted {
		t.Fatalf("first record: admitted=%v err=%v", admitted, err)
	}
	if _, err := cl.Write([]byte{0, 0, 0, 9, 'h', 'a'}); err != nil { // 2 of 9 bytes, then silence
		t.Fatal(err)
	}
	wait("silent mid-frame", done)
	// hello, then one idle deadline armed before each of the two frames.
	if len(server.asked) != 3 || !near(server.asked[1], tcpIdleTimeout) || !near(server.asked[2], tcpIdleTimeout) {
		t.Errorf("deadlines asked = %v, want hello then two of %v", server.asked, tcpIdleTimeout)
	}
	if _, err := cl.Write([]byte("x")); err == nil {
		t.Error("server end still open after the stall")
	}
}

// TestFreshClientInheritsPlan: a client id first seen while the gate is
// shedding must start at the plan-wide fraction — client ids are
// client-chosen, so an admit-all first round per id would let id
// rotation bypass admission control entirely.
func TestFreshClientInheritsPlan(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	control := &scriptedControl{}
	control.set(twoStageSnap(3, 2, 1, 2)) // starved grant: sheds nearly everything
	g := NewGate(GateConfig{
		Tmax: 1.5, MaxSlots: 16,
		RingCapacity: 1 << 12, ReplanEvery: time.Second, Now: clock,
	})
	g.SetControl(control)
	// Establish a shedding plan with one known client.
	seed := g.Client("seed", 1, 0, 0)
	for i := 0; i < 100; i++ {
		seed.Offer(engine.Values{[]byte("r")})
	}
	now = now.Add(time.Second)
	g.Replan()
	if f := g.Stats().AdmitFraction; f >= 1 {
		t.Fatalf("setup: admit fraction %.2f, want shedding", f)
	}
	// A brand-new id must not get a free admit-all round.
	fresh := g.Client("rotated-id", 1, 0, 0)
	admitted := 0
	for i := 0; i < 1000; i++ {
		if v := fresh.Offer(engine.Values{[]byte("r")}); v.Admitted {
			admitted++
		}
	}
	frac := g.Stats().AdmitFraction
	if float64(admitted) > float64(1000)*frac*1.5+10 {
		t.Fatalf("fresh client admitted %d of 1000 under plan fraction %.3f — id rotation bypasses the shed", admitted, frac)
	}
}

// TestHTTPNDJSONWithCharset: the NDJSON branch must match the media type,
// parameters and all — 'application/x-ndjson; charset=utf-8' is a batch,
// not one concatenated record.
func TestHTTPNDJSONWithCharset(t *testing.T) {
	g := NewGate(GateConfig{RingCapacity: 64})
	defer g.Close()
	srv := httptest.NewServer(Handler(g, ListenerConfig{}))
	defer srv.Close()
	req, err := http.NewRequest("POST", srv.URL+"/ingest", strings.NewReader("a\nb\nc\n"))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ClientIDHeader, "batcher")
	req.Header.Set("Content-Type", "application/x-ndjson; charset=utf-8")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 202 || !strings.Contains(string(body), `"admitted":3`) {
		t.Fatalf("charset-parameterized NDJSON: %d %s, want 202 with 3 admitted", resp.StatusCode, body)
	}
	if n := g.Ring().Len(); n != 3 {
		t.Fatalf("ring holds %d records, want 3 (one per line)", n)
	}
}

// TestHTTPReplyContract holds the front door's HTTP answer to the bytes a
// client may parse: status, Content-Type, Retry-After, Content-Length and
// the JSON body, for an admitted record, each refusal reason, and NDJSON
// requests admitted whole and in part. The literals are what the
// fmt.Fprintf/Header.Set handler of commit b43027f wrote.
func TestHTTPReplyContract(t *testing.T) {
	for _, c := range []struct {
		name        string
		gate        GateConfig
		listener    ListenerConfig
		prepare     func(g *Gate, cl *Client)
		contentType string
		body        string
		status      int
		retryAfter  []string
		reply       string
	}{
		{name: "admitted", body: "rec", status: 202,
			reply: `{"admitted":1,"shed":0,"reason":"admitted"}` + "\n"},
		{name: "empty body admitted", body: "", status: 202,
			reply: `{"admitted":1,"shed":0,"reason":"admitted"}` + "\n"},
		{name: "rate-limited", listener: ListenerConfig{Rate: 0.5, Burst: 1},
			prepare: func(_ *Gate, cl *Client) { cl.Offer(engine.Values{0}) },
			body:    "rec", status: 429, retryAfter: []string{"2"},
			reply: `{"admitted":0,"shed":1,"reason":"rate-limit"}` + "\n"},
		{name: "overload", gate: GateConfig{ReplanEvery: 2500 * time.Millisecond},
			prepare: func(_ *Gate, cl *Client) { cl.admitPermille.Store(0) },
			body:    "rec", status: 429, retryAfter: []string{"3"},
			reply: `{"admitted":0,"shed":1,"reason":"overload"}` + "\n"},
		{name: "backlog", gate: GateConfig{RingCapacity: 4, ReplanEvery: 200 * time.Millisecond},
			prepare: func(g *Gate, _ *Client) {
				for g.Ring().TryPush(engine.Values{0}) {
				}
			},
			body: "rec", status: 429, retryAfter: []string{"1"},
			reply: `{"admitted":0,"shed":1,"reason":"backlog"}` + "\n"},
		{name: "ndjson admitted", contentType: "application/x-ndjson", body: "a\nb\r\n\nc", status: 202,
			reply: `{"admitted":3,"shed":0,"reason":"admitted"}` + "\n"},
		{name: "ndjson mixed", listener: ListenerConfig{Rate: 1, Burst: 2},
			contentType: "application/x-ndjson; charset=utf-8", body: "a\nb\nc\n", status: 429, retryAfter: []string{"1"},
			reply: `{"admitted":2,"shed":1,"reason":"rate-limit"}` + "\n"},
		{name: "not ndjson", contentType: "text/plain", body: "a\nb\n", status: 202,
			reply: `{"admitted":1,"shed":0,"reason":"admitted"}` + "\n"},
	} {
		t.Run(c.name, func(t *testing.T) {
			if c.gate.RingCapacity == 0 {
				c.gate.RingCapacity = 64
			}
			g := NewGate(c.gate)
			defer g.Close()
			srv := httptest.NewServer(Handler(g, c.listener))
			defer srv.Close()
			if c.prepare != nil {
				c.prepare(g, c.listener.withDefaults().client(g, "contract"))
			}
			req, err := http.NewRequest("POST", srv.URL+"/ingest", strings.NewReader(c.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set(ClientIDHeader, "contract")
			if c.contentType != "" {
				req.Header.Set("Content-Type", c.contentType)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			reply, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != c.status || string(reply) != c.reply {
				t.Errorf("answered %d %q, want %d %q", resp.StatusCode, reply, c.status, c.reply)
			}
			h := resp.Header
			if got := fmt.Sprint(h["Content-Type"], h["Retry-After"], h["Content-Length"]); got !=
				fmt.Sprint([]string{"application/json"}, c.retryAfter, []string{fmt.Sprint(len(c.reply))}) {
				t.Errorf("headers Content-Type, Retry-After, Content-Length = %s", got)
			}
		})
	}
}

// What a loop.Supervisor supervises, scripted: a target that takes any
// allocation, a pool that grants whatever is asked, and a measurer that is
// always ready with one snapshot and doubles as the stepper returning d.
type scriptedTarget struct{ alloc map[string]int }

func (t *scriptedTarget) DrainInterval() metrics.IntervalReport { return metrics.IntervalReport{} }
func (t *scriptedTarget) Allocation() map[string]int            { return t.alloc }
func (t *scriptedTarget) Rebalance(alloc map[string]int, _ time.Duration) error {
	t.alloc = alloc
	return nil
}

type scriptedPool struct{ kmax int }

func (p *scriptedPool) Kmax() int                     { return p.kmax }
func (p *scriptedPool) Rebalance() cluster.Transition { return cluster.Transition{Kind: "rebalance"} }
func (p *scriptedPool) Resize(target int) (cluster.Transition, error) {
	p.kmax = target
	return cluster.Transition{Kind: "scale-out"}, nil
}

type scriptedMeasurer struct {
	snap core.Snapshot
	d    core.Decision
}

func (m *scriptedMeasurer) AddInterval(metrics.IntervalReport) error  { return nil }
func (m *scriptedMeasurer) Snapshot() (core.Snapshot, error)          { return m.snap, nil }
func (m *scriptedMeasurer) Reset()                                    {}
func (m *scriptedMeasurer) Step(core.Snapshot) (core.Decision, error) { return m.d, nil }

// TestReplanPlansOnGrantInForce wires a gate to a real supervisor and holds
// the round after a scale-out: demand needs nine slots, the grant is eight
// and the measured sojourn is far over Tmax, so the gate sheds; the
// supervisor then applies a ten-slot grant that covers the need, goes into
// its cooldown — and the very next Replan must admit everything, planning on
// the allocation and grant in force and on no sojourn, not on the ones the
// action replaced. The shed-plan records say which they were.
func TestReplanPlansOnGrantInForce(t *testing.T) {
	m := &scriptedMeasurer{snap: twoStageSnap(6, 2, 4, 8)} // the supervisor fills in Alloc and Kmax
	m.snap.MeasuredSojourn = 3
	supClock := time.Unix(0, 0)
	sup, err := loop.New(loop.Config{
		Target:    &scriptedTarget{alloc: map[string]int{"stage1": 4, "stage2": 4}},
		Operators: []string{"stage1", "stage2"},
		Stepper:   m, Pool: &scriptedPool{kmax: 8}, Source: m,
		Interval: time.Second, Cooldown: 10 * time.Second,
		Clock: func() time.Time { return supClock },
	})
	if err != nil {
		t.Fatal(err)
	}
	dlog := obs.NewLog(obs.Config{})
	defer dlog.Close()
	clock := time.Unix(0, 0)
	g := NewGate(GateConfig{Tmax: 1.5, MaxSlots: 16, RingCapacity: 64, DecisionLog: dlog,
		Now: func() time.Time { return clock }})
	defer g.Close()
	g.SetControl(sup)
	cl := g.Client("c", 1, 0, 0)
	round := func() float64 {
		for i := 0; i < 6; i++ { // 6 tuples/s offered
			cl.Offer(engine.Values{i})
		}
		clock = clock.Add(time.Second)
		g.Replan()
		return g.Stats().AdmitFraction
	}

	sup.Tick() // a measured hold round on [4 4] under a grant of 8
	if f := round(); f >= 1 {
		t.Fatalf("admit fraction %.3f on a grant one slot short and a 3 s sojourn, want a shed", f)
	}
	m.d = core.Decision{Action: core.ActionScaleOut, Target: []int{5, 5}, TargetKmax: 10, Reason: "scripted"}
	supClock = supClock.Add(time.Second)
	sup.Tick()
	if hist := sup.History(); len(hist) != 1 || !hist[0].Applied {
		t.Fatalf("want one applied scale-out, got %+v", hist)
	}
	if f := round(); f != 1 {
		t.Errorf("admit fraction %.3f on the first plan after a grant that covers the demand, want 1", f)
	}
	var planned [][2]int
	dlog.Sweep(func(r *obs.Record) {
		if r.Kind == obs.KindShedPlan {
			planned = append(planned, [2]int{r.From, r.To})
		}
	})
	if want := [][2]int{{8, 8}, {10, 10}}; fmt.Sprint(planned) != fmt.Sprint(want) {
		t.Errorf("shed-plan records planned on (alloc, Kmax) %v, want %v", planned, want)
	}
}

// TestShedPlanRecordCountsRound holds each shed-plan record to the round
// it closes: At is the gate's clock at the Replan, Gain the records
// admitted since the previous Replan and Loss those refused as overload or
// backlog. The second round sheds both ways: the plan thins the client and
// the undrained ring fills.
func TestShedPlanRecordCountsRound(t *testing.T) {
	dlog := obs.NewLog(obs.Config{})
	defer dlog.Close()
	clock := time.Unix(100, 0)
	g := NewGate(GateConfig{Tmax: 1.5, MaxSlots: 16, RingCapacity: 64, DecisionLog: dlog,
		Now: func() time.Time { return clock }})
	defer g.Close()
	control := &scriptedControl{}
	control.set(twoStageSnap(3, 2, 8, 16))
	g.SetControl(control)
	cl := g.Client("c", 1, 0, 0)
	payload := engine.Values{[]byte("r")}
	round := func(n int) (admitted, refused int64) {
		for range n {
			if cl.Offer(payload).Admitted {
				admitted++
			} else {
				refused++
			}
		}
		clock = clock.Add(time.Second)
		g.Replan()
		return admitted, refused
	}

	round(32) // admit-all until the first plan, which sheds 32/s
	admitted, refused := round(200)
	if st := g.Stats(); st.ShedOverload == 0 || st.ShedBacklog == 0 {
		t.Fatalf("second round refused %d overload and %d backlog, want both", st.ShedOverload, st.ShedBacklog)
	}
	var plans []obs.Record
	dlog.Sweep(func(r *obs.Record) {
		if r.Kind == obs.KindShedPlan {
			plans = append(plans, *r)
		}
	})
	if len(plans) != 2 {
		t.Fatalf("%d shed-plan records, want 2", len(plans))
	}
	if r := plans[0]; r.Gain != 32 || r.Loss != 0 {
		t.Errorf("first record gain %.0f loss %.0f, want 32 and 0", r.Gain, r.Loss)
	}
	r := plans[1]
	if r.At != clock.UnixNano() {
		t.Errorf("second record at %d, want the gate's clock %d", r.At, clock.UnixNano())
	}
	if int64(r.Gain) != admitted || int64(r.Loss) != refused {
		t.Errorf("second record gain %.0f loss %.0f, want %d admitted and %d refused", r.Gain, r.Loss, admitted, refused)
	}
}
