package ingest

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// stepClock is a gate clock a test steps by hand; handlers may read it
// concurrently.
type stepClock struct{ ns atomic.Int64 }

func (c *stepClock) now() time.Time       { return time.Unix(0, c.ns.Load()) }
func (c *stepClock) step(d time.Duration) { c.ns.Add(int64(d)) }

// registered looks id up the way the replan round sees the registry:
// without taking a hold.
func registered(g *Gate, id string) *Client {
	s := g.clients.shard(id)
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.clients[id]
}

// postLines sends n one-byte NDJSON records as client id and returns how
// many were admitted.
func postLines(t testing.TB, h http.Handler, id string, n int) int {
	req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(bytes.Repeat([]byte("r\n"), n)))
	req.Header.Set("Content-Type", "application/x-ndjson")
	req.Header.Set(ClientIDHeader, id)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var reply struct{ Admitted, Shed int }
	if err := json.Unmarshal(w.Body.Bytes(), &reply); err != nil {
		t.Errorf("client %s: status %d, body %q: %v", id, w.Code, w.Body, err)
	}
	return reply.Admitted
}

// TestEvictAfterOneIdleRound: a client no caller holds stays registered
// through the round it offered in and is evicted at the end of its first
// idle one; a held client never is. An id that comes back registers
// afresh, at the plan-wide fraction.
func TestEvictAfterOneIdleRound(t *testing.T) {
	clock := new(stepClock)
	g := NewGate(GateConfig{RingCapacity: 64, Now: clock.now})
	defer g.Close()
	h := Handler(g, ListenerConfig{})
	held := g.Client("held", 1, 0, 0)
	if postLines(t, h, "x", 1) != 1 {
		t.Fatal("record refused")
	}
	x := registered(g, "x")
	if x == nil || x.holds.Load() != 0 {
		t.Fatal("after its request, x is not registered, or still held")
	}
	clock.step(time.Second)
	g.Replan()
	if registered(g, "x") != x {
		t.Fatal("x was evicted at the end of the round it offered in")
	}
	clock.step(time.Second)
	g.Replan()
	if registered(g, "x") != nil {
		t.Fatal("x is still registered after a whole idle round")
	}
	if st := g.Stats(); st.Clients != 1 || st.Evicted != 1 {
		t.Fatalf("stats: %d clients, %d evicted; want 1 (the held one) and 1", st.Clients, st.Evicted)
	}
	for i := 0; i < 3; i++ {
		clock.step(time.Second)
		g.Replan()
	}
	if registered(g, "held") != held {
		t.Fatal("a held client was evicted")
	}
	if postLines(t, h, "x", 1) != 1 {
		t.Fatal("returning id refused")
	}
	if back := registered(g, "x"); back == x || back.admitPermille.Load() != permilleScale {
		t.Fatalf("returning id: same client %v, permille %d; want a fresh client at the plan-wide 1000", back == x, back.admitPermille.Load())
	}
}

// TestEvictSkipsOpenConnection: a TCP connection holds its client for as
// long as it is open, so three idle rounds evict nothing and the records
// it sends after them count in the next round's rate.
func TestEvictSkipsOpenConnection(t *testing.T) {
	clock := new(stepClock)
	g := NewGate(GateConfig{RingCapacity: 64, Now: clock.now})
	defer g.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go ServeTCP(l, g, ListenerConfig{})
	c, err := DialTCP(l.Addr().String(), "conn")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	send := func() {
		if ok, _, err := c.Send([]byte("r")); err != nil || !ok {
			t.Fatalf("send: admitted %v, %v", ok, err)
		}
	}
	send()
	cl := registered(g, "conn")
	for i := 0; i < 4; i++ { // the round it offered in, then three idle ones
		clock.step(time.Second)
		g.Replan()
	}
	if registered(g, "conn") != cl || g.Stats().Evicted != 0 {
		t.Fatalf("an open connection's client was evicted (%d evictions)", g.Stats().Evicted)
	}
	send()
	send()
	clock.step(time.Second)
	g.Replan()
	if r := g.scratch.rates; len(r) != 1 || r[0] != 2 {
		t.Fatalf("round rates %v, want the connection's 2 records/s", r)
	}
}

// TestEvictKeepsPartlyRefilledBucket: a client idle for a round whose
// token bucket has not refilled to its burst stays registered — evicting
// it would hand the id a fresh, full bucket — and goes once it has.
func TestEvictKeepsPartlyRefilledBucket(t *testing.T) {
	clock := new(stepClock)
	g := NewGate(GateConfig{RingCapacity: 64, Now: clock.now})
	defer g.Close()
	h := Handler(g, ListenerConfig{Rate: 1, Burst: 10})
	drain := func() { g.Ring().PopBatch(nil, make([]engine.Values, 0, 64)) }
	if n := postLines(t, h, "rl", 10); n != 10 {
		t.Fatalf("a full bucket admitted %d of 10", n)
	}
	drain()
	clock.step(time.Second)
	g.Replan() // the round it offered in
	clock.step(time.Second)
	g.Replan() // idle, and the bucket holds 2 of 10 tokens
	if registered(g, "rl") == nil {
		t.Fatal("a client with a partly refilled bucket was evicted")
	}
	if n := postLines(t, h, "rl", 10); n != 2 {
		t.Fatalf("after 2 s at 1 token/s the client had %d records admitted, want 2", n)
	}
	drain()
	clock.step(time.Second)
	g.Replan()
	clock.step(10 * time.Second)
	g.Replan() // idle, and the bucket is full again
	if registered(g, "rl") != nil || g.Stats().Evicted != 1 {
		t.Fatalf("a refilled idle client was kept (%d evictions)", g.Stats().Evicted)
	}
}

// TestEvictedClientIsCollected: once evicted, nothing — the registry, the
// replan round's scratch — keeps the client alive.
func TestEvictedClientIsCollected(t *testing.T) {
	clock := new(stepClock)
	g := NewGate(GateConfig{RingCapacity: 64, Now: clock.now})
	defer g.Close()
	h := Handler(g, ListenerConfig{})
	postLines(t, h, "gc", 1)
	collected := make(chan struct{})
	runtime.SetFinalizer(registered(g, "gc"), func(*Client) { close(collected) })
	for i := 0; i < 2; i++ {
		clock.step(time.Second)
		g.Replan()
	}
	if g.Stats().Evicted != 1 {
		t.Fatal("the idle client was not evicted")
	}
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("the evicted client was never collected")
}

// TestIDRotationIsBounded: a client that presents a fresh X-Client-ID on
// every request, 100 000 of them at 1 000 a round, leaves nothing behind —
// the registry empties two idle rounds later, and the heap is back within
// 2 MB of where it started. A registry that keeps every id keeps ≈ 20 MB.
func TestIDRotationIsBounded(t *testing.T) {
	clock := new(stepClock)
	g := NewGate(GateConfig{RingCapacity: 1 << 12, Now: clock.now})
	defer g.Close()
	h := Handler(g, ListenerConfig{})
	buf := make([]engine.Values, 0, 1<<12)
	body := []byte("r")
	round := func() {
		if g.Ring().Len() > 0 {
			g.Ring().PopBatch(nil, buf)
		}
		clock.step(time.Second)
		g.Replan()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const ids, perRound = 100_000, 1_000
	for i := 0; i < ids; i++ {
		req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
		req.Header.Set(ClientIDHeader, "rot-"+strconv.Itoa(i))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusAccepted {
			t.Fatalf("request %d: status %d", i, w.Code)
		}
		if i%perRound == perRound-1 {
			round()
		}
	}
	round()
	round()
	if n := g.clients.size(); n != 0 {
		t.Fatalf("after two idle rounds the registry holds %d of %d rotated ids", n, ids)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("heap after %d rotated ids: %+.2f MB", ids, float64(grew)/1e6)
	if grew >= 2e6 {
		t.Fatalf("the heap grew %.2f MB over %d rotated ids, want < 2 MB", float64(grew)/1e6, ids)
	}
}

// TestEvictStormBooksExact races handlers offering for a hot id set and
// for ids used once against replan rounds on a clock that steps 1 s a
// round. The round rates summed over every round equal the records
// offered: no offer landed on a client after its eviction, where no round
// would ever count it.
func TestEvictStormBooksExact(t *testing.T) {
	clock := new(stepClock)
	g := NewGate(GateConfig{RingCapacity: 1 << 12, Now: clock.now})
	h := Handler(g, ListenerConfig{})
	stop := make(chan struct{})
	consumerDone := make(chan struct{})
	defer func() {
		g.Close()
		close(stop)
		<-consumerDone
	}()
	go func() {
		defer close(consumerDone)
		buf := make([]engine.Values, 0, 1<<10)
		for {
			if _, ok := g.Ring().PopBatch(stop, buf); !ok {
				return
			}
		}
	}()
	const senders, perSender = 4, 2_000
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < perSender; i++ {
				id := "hot-" + strconv.Itoa(i%4)
				if i%2 == 1 {
					id = "once-" + strconv.Itoa(s) + "-" + strconv.Itoa(i)
				}
				postLines(t, h, id, 1+i%3)
			}
		}(s)
	}
	sent := make(chan struct{})
	go func() { wg.Wait(); close(sent) }()
	var counted float64
	round := func() {
		clock.step(time.Second)
		g.Replan()
		for _, r := range g.scratch.rates {
			counted += r
		}
	}
	rounds := 0
	for storming := true; storming; rounds++ {
		select {
		case <-sent:
			storming = false
		default:
		}
		round()
	}
	round()
	st := g.Stats()
	t.Logf("%d rounds, %d offered, %d evicted", rounds+1, st.Offered, st.Evicted)
	if counted != float64(st.Offered) {
		t.Fatalf("the rounds counted %.0f offered records, the gate %d", counted, st.Offered)
	}
	if st.Clients != 0 || st.Evicted < senders*perSender/2 {
		t.Fatalf("after an idle round: %d clients registered, %d evicted; want 0 and >= %d",
			st.Clients, st.Evicted, senders*perSender/2)
	}
}
