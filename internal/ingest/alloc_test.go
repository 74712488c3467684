package ingest

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
)

// TestOfferZeroAllocsWithDecisionLog pins the admission fast path at zero
// allocations per record with the decision log enabled — the regression
// guard behind the 46 ns/0-alloc admit claim. Decision records are
// emitted at Replan granularity, never per record, so turning the log on
// must not cost the hot path anything; this fails (not a bench note) if a
// change sneaks an allocation in.
func TestOfferZeroAllocsWithDecisionLog(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	dlog := obs.NewLog(obs.Config{})
	defer dlog.Close()
	g := NewGate(GateConfig{RingCapacity: 1 << 12, DecisionLog: dlog})
	defer g.Close()
	c := g.Client("alloc", 1, 0, 0)
	payload := engine.Values{[]byte("record")}
	done := make(chan struct{})
	buf := make([]engine.Values, 0, 1<<12)
	i := 0
	allocs := testing.AllocsPerRun(10000, func() {
		if v := c.Offer(payload); !v.Admitted {
			t.Fatalf("offer %d refused: %+v", i, v)
		}
		if i&(1<<11-1) == 1<<11-1 { // drain half-full, one lock round
			g.Ring().PopBatch(done, buf)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("Offer allocated %.3f/op with the decision log on; want 0", allocs)
	}
}

// TestServeConnSteadyStateAllocs pins the TCP front door's cost per record
// at the slab's chunk refills, amortised: the record bytes, the one-slot
// Values, the record's []byte box, the burst scratch, the replies and the
// reply vector cost nothing per frame. Measured end to end over loopback,
// so the client's writes and reads and the ring's consumer are in the count
// too (and add nothing).
func TestServeConnSteadyStateAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	g := NewGate(GateConfig{RingCapacity: 1 << 12})
	defer g.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		buf := make([]engine.Values, 0, 1<<10)
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
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(frame(nil, []byte("alloc"))); err != nil {
		t.Fatal(err)
	}
	const depth = 64
	var window []byte
	for i := 0; i < depth; i++ {
		window = frame(window, bytes.Repeat([]byte{byte(i)}, 128))
	}
	replies := make([]byte, 5*depth)
	round := func() {
		if _, err := conn.Write(window); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, replies); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ { // grow the burst scratch, open the chunks
		round()
	}
	perFrame := testing.AllocsPerRun(200, round) / depth
	t.Logf("TCP front door: %.3f allocs per frame", perFrame)
	if perFrame > 0.05 {
		t.Fatalf("TCP front door allocates %.3f per frame, want <= 0.05", perFrame)
	}
}

// TestHandlerNDJSONAllocsPerLine pins the HTTP front door's marginal cost
// of one more NDJSON line at the slab's chunk refills, amortised — the
// line's Values and its []byte box are carved: the slope between a
// 128-line and a 256-line request. (A 1-line request is not the yardstick
// for the per-request part: its body is carved from the slab, a 256-line
// body is above the carve limit and allocated on its own.)
func TestHandlerNDJSONAllocsPerLine(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	g := NewGate(GateConfig{RingCapacity: 1 << 12})
	defer g.Close()
	h := Handler(g, ListenerConfig{})
	buf := make([]engine.Values, 0, 1<<12)
	post := func(body []byte) func() {
		return func() {
			req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
			req.Header.Set("Content-Type", "application/x-ndjson")
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			if w.Code != 202 {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			g.Ring().PopBatch(nil, buf)
		}
	}
	const lines = 256
	line := append(bytes.Repeat([]byte{'r'}, 128), '\n')
	half, many := post(bytes.Repeat(line, lines/2)), post(bytes.Repeat(line, lines))
	half()
	many()
	atHalf, atMany := testing.AllocsPerRun(100, half), testing.AllocsPerRun(100, many)
	perLine := (atMany - atHalf) / (lines / 2)
	t.Logf("HTTP front door: %.0f allocs for %d lines, %.0f for %d: %.3f per extra line", atHalf, lines/2, atMany, lines, perLine)
	if perLine > 0.05 {
		t.Fatalf("a %d-line request allocates %.0f, a %d-line request %.0f: %.3f per extra line, want <= 0.05",
			lines, atMany, lines/2, atHalf, perLine)
	}
}

// TestHandlerSingleRecordAllocs pins what the handler itself costs a
// single-record POST — the request drs-step's clients send: no Content-Type,
// a declared Content-Length. The same request through a handler that does
// nothing is subtracted, so the test's own request and recorder (its body
// buffer grown up front on both sides) cancel. What is left is the reply
// header map's first entry and the recorder's clone of that map (any
// handler that sets a header pays those); body, Values, the []byte box,
// header values, media type and reply are free.
func TestHandlerSingleRecordAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	g := NewGate(GateConfig{RingCapacity: 1 << 12})
	defer g.Close()
	buf := make([]engine.Values, 0, 1<<12)
	body := bytes.Repeat([]byte{'r'}, 128)
	through := func(h http.Handler, status int) func() {
		return func() {
			req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
			req.Header.Set(ClientIDHeader, "c1")
			w := httptest.NewRecorder()
			w.Body.Grow(64)
			h.ServeHTTP(w, req)
			if w.Code != status {
				t.Fatalf("status %d: %s", w.Code, w.Body)
			}
			if g.Ring().Len() > 0 {
				g.Ring().PopBatch(nil, buf)
			}
		}
	}
	ours := through(Handler(g, ListenerConfig{}), 202)
	empty := through(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), 200)
	ours()
	got, floor := testing.AllocsPerRun(500, ours), testing.AllocsPerRun(500, empty)
	t.Logf("single-record POST: %.2f allocs, %.2f through an empty handler: the handler costs %.2f", got, floor, got-floor)
	if got-floor > 4.1 {
		t.Fatalf("the handler costs a single-record POST %.2f allocations, want <= 4", got-floor)
	}
}

// TestReplayAllocsPerRecord pins Gate.Replay of a recovered log at the
// slab's chunk refills and the cursor's one segment open per span,
// amortised: each record's one-slot Values, its bytes read back from the
// log and its []byte box are all carved.
func TestReplayAllocsPerRecord(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const n, batch = 20000, 1000
	dir := t.TempDir()
	_, l1, _ := durableGate(t, dir, 64)
	recs := make([][]byte, batch)
	for first := 1; first <= n; first += batch {
		for i := range recs {
			recs[i] = []byte(fmt.Sprintf("r-%05d", first+i))
		}
		if err := l1.AppendBatch(uint64(first), recs); err != nil {
			t.Fatal(err)
		}
	}
	if err := l1.Close(); err != nil {
		t.Fatal(err)
	}
	g, l2, _ := durableGate(t, dir, 1<<15)
	defer l2.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	drained := drainRing(g, n, nil) // replay streams at the ring's floor: it needs a consumer
	replayed, err := g.Replay()
	g.Close()
	<-drained
	runtime.ReadMemStats(&after)
	if err != nil || replayed != n {
		t.Fatalf("replayed %d err %v, want %d", replayed, err, n)
	}
	perRec := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("replay: %.4f allocs per record", perRec)
	if perRec > 0.05 {
		t.Fatalf("Replay allocated %.4f per record, want <= 0.05", perRec)
	}
}

// TestDurableAckCycleAllocs pins the durable ack path at zero allocations
// per batch: a record pushed into a durable gate's ring is popped by the
// NetworkSpout with its tracker range, served, and its completion advances
// the watermark. The range, its callback and the engine's batch countdown
// are all reused from an earlier batch.
func TestDurableAckCycleAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	g, l, _ := durableGate(t, t.TempDir(), 1<<10)
	defer l.Close()
	topo, err := engine.NewTopology().
		Spout("net", 1, func(int) engine.Spout { return &engine.NetworkSpout{Source: g.Source()} }).
		Bolt("sink", 2, func(int) engine.Bolt {
			return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
		}).
		Shuffle("net", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"sink": 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer run.Stop()
	defer g.Close()
	v := engine.Values{[]byte("record")}
	var pushed uint64
	cycle := func() {
		if !g.Ring().TryPush(v) {
			t.Fatal("push refused on an idle ring")
		}
		pushed++
		for g.Watermark() < pushed {
			runtime.Gosched()
		}
	}
	for i := 0; i < 100; i++ { // fill the pools and the tracker's free list
		cycle()
	}
	allocs := testing.AllocsPerRun(1000, cycle)
	t.Logf("durable push → pop → serve → ack: %.3f allocs per batch", allocs)
	if allocs > 0.05 {
		t.Fatalf("the durable ack cycle allocates %.3f per batch, want 0", allocs)
	}
}

// TestReplanAllocsOutsidePlan holds a replanning round with two clients,
// the decision log on, to planAdmission's own allocations plus at most
// four: the client list, the per-client vectors and the fill order live on
// the gate across rounds.
func TestReplanAllocsOutsidePlan(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("AllocsPerRun is unreliable under -race")
	}
	for _, c := range []struct {
		name string
		snap core.Snapshot
	}{
		{"grant fits", twoStageSnap(18, 2, 12, 32)},
		{"shedding", twoStageSnap(18, 2, 6, 12)},
	} {
		dlog := obs.NewLog(obs.Config{})
		clock := time.Unix(0, 0)
		g := NewGate(GateConfig{Tmax: 1.5, MaxSlots: 32, DecisionLog: dlog, Now: func() time.Time { return clock }})
		g.SetControl(&scriptedControl{snap: c.snap, ok: true})
		gold, bronze := g.Client("gold", 4, 0, 0), g.Client("bronze", 1, 0, 0)
		v := engine.Values{0}
		buf := make([]engine.Values, 0, 64)
		round := func() {
			for i := 0; i < 9; i++ {
				gold.Offer(v)
				bronze.Offer(v)
			}
			if g.Ring().Len() > 0 {
				g.Ring().PopBatch(nil, buf)
			}
			clock = clock.Add(time.Second)
			g.Replan()
		}
		round()
		round()
		whole := testing.AllocsPerRun(100, round)
		plan := testing.AllocsPerRun(100, func() { planAdmission(c.snap, 1.5, 32, 18) })
		if shedding := g.Stats().AdmitFraction < 1; shedding != (c.name == "shedding") {
			t.Errorf("%s: admit fraction %.3f", c.name, g.Stats().AdmitFraction)
		}
		t.Logf("%s: %.0f allocs/round, %.0f of them planAdmission's", c.name, whole, plan)
		if whole-plan > 4 {
			t.Errorf("%s: Replan allocated %.0f/round outside planAdmission's %.0f, want <= 4", c.name, whole-plan, plan)
		}
		g.Close()
		dlog.Close()
	}
}

// TestPlanAdmissionPlanAndAllocs holds the replanning round to two things
// at once, in both regimes — the grant fits the offered demand, and the
// gate is shedding: the Plan is bit-equal to what the per-probe
// NewModel/MinProcessors bisect of commit 82a01d8 returned (literals
// captured there, at its default 10 % headroom; the vld rows recaptured at
// 648ea10 once every station is M/M/k), and computing it costs a
// handful of allocations — the plan's model and the search's scratch —
// not eight per probe of a 41-probe search (328 there).
func TestPlanAdmissionPlanAndAllocs(t *testing.T) {
	vld := func(measured float64) core.Snapshot {
		return core.Snapshot{
			Lambda0: 13, OfferedLambda0: 13,
			Ops: []core.OpRates{
				{Name: "extract", Lambda: 13, Mu: 1 / 0.45},
				{Name: "match", Lambda: 26, Mu: 1 / 0.25},
				{Name: "aggregate", Lambda: 13, Mu: 100},
			},
			MeasuredSojourn: measured,
			Alloc:           []int{10, 11, 1},
			Kmax:            22,
		}
	}
	for _, c := range []struct {
		name     string
		snap     core.Snapshot
		tmax     float64
		maxSlots int
		offered  float64
		rate     uint64 // want SustainableRate, as IEEE-754 bits
		fraction uint64 // want AdmitFraction, likewise
		viable   bool
	}{
		{name: "two-stage shed, capped", snap: twoStageSnap(3, 2, 3, 6), tmax: 1.5, maxSlots: 16, offered: 18,
			rate: 0x400e20c3d8790000, fraction: 0x3fcac7ca87880000},
		{name: "two-stage shed, roomy", snap: twoStageSnap(3, 2, 3, 6), tmax: 1.5, maxSlots: 64, offered: 18,
			rate: 0x400e20c3d8790000, fraction: 0x3fcac7ca87880000, viable: true},
		{name: "vld shed", snap: vld(0.9), tmax: 1.2, maxSlots: 40, offered: 41,
			rate: 0x4030ca46a8733101, fraction: 0x3fda358106f24002},
		{name: "vld shed, draining", snap: vld(2.5), tmax: 1.2, maxSlots: 0, offered: 29.5,
			rate: 0x401d036bc2d35267, fraction: 0x3fcf78dd07676667, viable: true},
		{name: "vld fits", snap: vld(0.9), tmax: 1.2, maxSlots: 40, offered: 13,
			rate: 0x402a000000000000, fraction: 0x3ff0000000000000, viable: true},
	} {
		want := Plan{SustainableRate: math.Float64frombits(c.rate), AdmitFraction: math.Float64frombits(c.fraction), ScaleOutViable: c.viable}
		if got := planAdmission(c.snap, c.tmax, c.maxSlots, c.offered); got != want {
			t.Errorf("%s: plan %+v (rate %#x, fraction %#x), want %+v", c.name, got,
				math.Float64bits(got.SustainableRate), math.Float64bits(got.AdmitFraction), want)
		}
		if obs.RaceEnabled {
			continue // AllocsPerRun is unreliable under -race
		}
		allocs := testing.AllocsPerRun(100, func() { planAdmission(c.snap, c.tmax, c.maxSlots, c.offered) })
		t.Logf("%s: %.0f allocs/plan", c.name, allocs)
		if allocs > 16 {
			t.Errorf("%s: planAdmission allocated %.0f/op, want <= 16", c.name, allocs)
		}
	}
}
