package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
)

// The same seed must give byte-identical schedules and payloads, and a
// different seed different ones: the SUT sees only generated inputs.
func TestGeneratorDeterminism(t *testing.T) {
	segs := []segment{{Rate: 2000, Seconds: 0.5}, {Rate: 6000, Seconds: 0.5}}
	draw := func(seed int64) ([]int64, []uint32, []byte) {
		rng := rand.New(rand.NewSource(seed))
		offs := poissonOffsets(rng, segs)
		ids := zipfIDs(rng, 1.1, 100000, len(offs))
		maker := newRecordMaker(seed)
		var payload []byte
		for i, off := range offs[:100] {
			rec := make([]byte, recordLen)
			maker.build(rec, uint64(phaseRate)<<phaseShift|uint64(i), off)
			payload = append(payload, rec...)
		}
		return offs, ids, payload
	}
	o1, i1, p1 := draw(7)
	o2, i2, p2 := draw(7)
	if !reflect.DeepEqual(o1, o2) || !reflect.DeepEqual(i1, i2) || !bytes.Equal(p1, p2) {
		t.Fatal("same seed produced different inputs")
	}
	o3, _, p3 := draw(8)
	if reflect.DeepEqual(o1, o3) || bytes.Equal(p1, p3) {
		t.Fatal("different seeds produced the same inputs")
	}
	for i := 1; i < len(o1); i++ {
		if o1[i] < o1[i-1] {
			t.Fatalf("schedule not monotone at %d", i)
		}
	}
	if n := len(o1); n < 3000 || n > 5000 {
		t.Fatalf("%d arrivals for an expected 4000", n)
	}
	if bytes.ContainsAny(p1, "\n") {
		t.Fatal("records must be newline-free")
	}
	seq, ok1 := hex16(p1[0:16])
	due, ok2 := hex16(p1[16:32])
	if !ok1 || !ok2 || seq != uint64(phaseRate)<<phaseShift || int64(due) != o1[0] {
		t.Fatalf("header round-trip: seq %x due %d", seq, due)
	}
}

// ackServer speaks ingest's TCP protocol and acknowledges every frame.
func ackServer(t *testing.T) (addr string, frames *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	frames = new(atomic.Int64)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				var hdr [4]byte
				for first := true; ; first = false {
					if _, err := io.ReadFull(conn, hdr[:]); err != nil {
						return
					}
					if _, err := io.CopyN(io.Discard, conn, int64(binary.BigEndian.Uint32(hdr[:]))); err != nil {
						return
					}
					if first {
						continue // hello
					}
					frames.Add(1)
					if _, err := conn.Write([]byte{ingest.TCPAck, 0, 0, 0, 0}); err != nil {
						return
					}
				}
			}()
		}
	}()
	return l.Addr().String(), frames
}

// An open-loop phase that starts late (the generator stalled) must still
// stamp every record with its scheduled due-time and time its verdict
// from there: the stall is charged to the records it delayed.
func TestOpenLoopChargesStallsToDueTime(t *testing.T) {
	addr, frames := ackServer(t)
	var completed atomic.Uint64
	fl := &flight{completed: &completed}
	w := workload{Transport: "tcp", Batch: 1}
	c, err := dial(w, addr, newRecordMaker(1), fl, 0)
	if err != nil {
		t.Fatal(err)
	}
	const stall = 40 * time.Millisecond
	ph := &openPhase{tag: phaseRate, startNS: time.Now().Add(-stall).UnixNano()}
	for i := 0; i < 50; i++ {
		ph.offsets = append(ph.offsets, int64(i)*int64(100*time.Microsecond))
	}
	c.open(ph)
	st := c.finish()
	if st.err != nil || st.failed != 0 {
		t.Fatalf("err %v failed %d", st.err, st.failed)
	}
	if got := frames.Load(); got != 50 || st.acked[phaseRate].Count != 50 {
		t.Fatalf("server saw %d frames, generator booked %d", got, st.acked[phaseRate].Count)
	}
	if len(st.admitNS) != 50 || len(st.lagNS) != 50 {
		t.Fatalf("%d admit and %d lag samples", len(st.admitNS), len(st.lagNS))
	}
	floor := float64(stall - 5*time.Millisecond)
	for i := range st.admitNS {
		if st.admitNS[i] < floor || st.lagNS[i] < floor {
			t.Fatalf("sample %d: admit %.0f ns, lag %.0f ns: the stall was not charged", i, st.admitNS[i], st.lagNS[i])
		}
	}
}

// Fake sources, one per interface set NetworkSpout distinguishes.
type fakePlain struct{}

func (fakePlain) PopBatch(<-chan struct{}, []engine.Values) ([]engine.Values, bool) {
	return nil, false
}

type fakeAcked struct{ fakePlain }

func (fakeAcked) PopBatchAcked(<-chan struct{}, []engine.Values) ([]engine.Values, func(), bool) {
	return nil, nil, false
}

type fakeTraced struct{ fakePlain }

func (fakeTraced) PopBatchTraced(<-chan struct{}, []engine.Values, []uint64) ([]engine.Values, []uint64, func(), bool) {
	return nil, nil, nil, false
}

type fakeBoth struct {
	fakeAcked
}

func (fakeBoth) PopBatchTraced(<-chan struct{}, []engine.Values, []uint64) ([]engine.Values, []uint64, func(), bool) {
	return nil, nil, nil, false
}

// The source decorator must expose exactly the interfaces of what it
// wraps: NetworkSpout chooses its drain path by type assertion.
func TestSourceDecoratorPreservesInterfaces(t *testing.T) {
	ring := ingest.NewRing(8)
	probe := &sourceProbe{ring: ring, ackWait: &collector{}}
	cases := map[string]engine.BatchSource{
		"plain": fakePlain{}, "acked": fakeAcked{}, "traced": fakeTraced{}, "both": fakeBoth{},
		"ring": ring, // the real non-durable source
	}
	for name, inner := range cases {
		wrapped := decorateSource(inner, probe)
		_, wantAcked := inner.(engine.AckBatchSource)
		_, wantTraced := inner.(engine.TracedBatchSource)
		_, gotAcked := wrapped.(engine.AckBatchSource)
		_, gotTraced := wrapped.(engine.TracedBatchSource)
		if gotAcked != wantAcked || gotTraced != wantTraced {
			t.Errorf("%s: acked %v (want %v), traced %v (want %v)", name, gotAcked, wantAcked, gotTraced, wantTraced)
		}
	}
	// And it forwards what it pops, stamping the table on the way.
	table := &stampTable{recs: make([]stamps, 4)}
	probe.table = table
	rec := make([]byte, recordLen)
	newRecordMaker(1).build(rec, uint64(phaseRate)<<phaseShift|2, 12345)
	ring.TryPush(engine.Values{rec})
	batch, _, _, ok := decorateSource(ring, probe).(engine.TracedBatchSource).PopBatchTraced(nil, make([]engine.Values, 0, 4), make([]uint64, 0, 4))
	if !ok || len(batch) != 1 || table.recs[2].pop == 0 {
		t.Fatalf("pop through the decorator: ok %v, %d items, stamp %d", ok, len(batch), table.recs[2].pop)
	}
}

func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // sticks out: clipped
		{Name: "a1", Start: 15, End: 25, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 50 - 10, 30 - 10, 30, 30, 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}

	// A record's tiling leaves the root no self time and sums to its length.
	st := stamps{due: 1000, arrive: 1100, handled: 1400, pop: 1300,
		entry: [stageCount]int64{1500, 1800, 2100}, exit: [stageCount]int64{1600, 1900, 2150}}
	tiled, clamped, ok := recordSpans(nil, 1, &st, stageNames[false], "ingest.tcp")
	if !ok || clamped != 0 {
		t.Fatalf("complete, ordered stamps: ok %v, %d clamped", ok, clamped)
	}
	sum := func(spans []span) (root, children int64) {
		self := selfTimes(spans)
		for _, s := range self[1:] {
			children += s
		}
		return self[0], children
	}
	if root, children := sum(tiled); root != 0 || children != 2150-1000 || tiled[0].End != 2150 {
		t.Fatalf("tiling: root self %d, children %d, root ends %d", root, children, tiled[0].End)
	}
	// The spout took the record before the front door answered: the door's
	// span ends at the pop and the ring wait is empty.
	if tiled[2].End != 1300 || tiled[3].End-tiled[3].Start != 0 {
		t.Fatalf("ingest span ends %d, ring wait %d", tiled[2].End, tiled[3].End-tiled[3].Start)
	}

	// A stamp out of path order is counted, and the tiling no longer sums
	// to the root (the sink's own due → exit): the sum check can fail.
	late := st
	late.entry[1] = 2300 // beyond the sink's exit
	tiled, clamped, ok = recordSpans(nil, 1, &late, stageNames[false], "ingest.tcp")
	if _, children := sum(tiled); !ok || clamped == 0 || children <= tiled[0].End-tiled[0].Start {
		t.Fatalf("disordered stamps: ok %v, %d clamped, children %d of root %d", ok, clamped, children, tiled[0].End-tiled[0].Start)
	}
	fold := spanFold{n: 1, e2eSum: 1150, selfSum: map[string]float64{layerGenSend: 1150}}
	if _, _, errPct := fold.table("ingest.tcp", 1.150); math.Abs(errPct) > 1e-9 {
		t.Fatalf("a fold that matches the sink's mean reads %v %%", errPct)
	}
	if _, _, errPct := fold.table("ingest.tcp", 2.300); math.Abs(errPct+50) > 1e-9 {
		t.Fatalf("a fold that holds half the sink's mean reads %v %%, want -50", errPct)
	}

	st.pop = 0
	if _, _, ok := recordSpans(nil, 1, &st, stageNames[false], "ingest.tcp"); ok {
		t.Fatal("a record with a missing stamp must be skipped")
	}
}

// The warm-up is a single base-rate segment of the stated length on every
// workload, and the measured arc lasts what it is asked to.
func TestWarmupAndArcLengths(t *testing.T) {
	for _, w := range workloads {
		want := 2.0
		if w.Control {
			want = 3
		}
		for _, slow := range []bool{false, true} {
			warm := w.baseSegment(w.warmupSeconds(), slow)
			if warm.Seconds != want || warm.Rate != w.openSegments(8, slow)[0].Rate {
				t.Errorf("%s: warm-up %+v, want %g s at the arc's base rate", w.Name, warm, want)
			}
			total := 0.0
			for _, seg := range w.openSegments(16, slow) {
				total += seg.Seconds
			}
			if total != 16 {
				t.Errorf("%s: a 16 s arc lasts %g s", w.Name, total)
			}
		}
	}
}

// quartiles must match Python's statistics.quantiles(values, n=4), the
// rule the contract's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{12, 3, 5, 7, 1, 9, 20, 14, 8, 6}
	q1, q3 := quartiles(xs)
	if math.Abs(q1-4.5) > 1e-12 || math.Abs(q3-12.5) > 1e-12 {
		t.Fatalf("quartiles %v %v, want 4.5 12.5", q1, q3)
	}
	if s := relSpread(xs); math.Abs(s-8.0/7.5) > 1e-12 {
		t.Fatalf("spread %v", s)
	}
}

func TestCompareVerdicts(t *testing.T) {
	mk := func(metric string, vals ...float64) *resultFile {
		f := &resultFile{}
		for _, v := range vals {
			f.Runs = append(f.Runs, outcome{Workload: "http-batch", Attempted: 100, Metrics: map[string]float64{metric: v}})
		}
		return f
	}
	lower := metricDef{Name: "e2e_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "goodput_rps", Better: "higher", Bound: 0.10}
	cases := []struct {
		d    metricDef
		a, b []float64
		want string
	}{
		{lower, []float64{1, 1.01, 0.99}, []float64{1.05, 1.04, 1.06}, "ok"},
		{lower, []float64{1, 1.01, 0.99}, []float64{1.2, 1.21, 1.19}, "regressed"},
		{lower, []float64{1, 1.01, 0.99}, []float64{0.5, 0.51, 0.49}, "ok"}, // better is never a regression
		{higher, []float64{100, 101, 99}, []float64{80, 81, 79}, "regressed"},
		{higher, []float64{100, 101, 99}, []float64{130, 131, 129}, "ok"},
		{lower, []float64{1, 1.4, 0.7, 1.2}, []float64{1.3, 1.3, 1.3, 1.3}, "unresolved"}, // A's own spread hides it
	}
	for i, c := range cases {
		if got := judge(c.d, c.a, c.b); got.Verdict != c.want {
			t.Errorf("case %d: %s (change %+.3f spread %.3f), want %s", i, got.Verdict, got.Change, got.Spread, c.want)
		}
	}
	var buf bytes.Buffer
	if code := compareFiles(mk("allocs_per_rec", 100, 101, 99), mk("allocs_per_rec", 140, 141, 139), &buf); code != 1 || !strings.Contains(buf.String(), "regressed") {
		t.Fatalf("exit %d, output:\n%s", code, buf.String())
	}
	buf.Reset()
	worse := mk("allocs_per_rec", 100, 101, 99)
	worse.Runs[0].Failed = 1
	if code := compareFiles(mk("allocs_per_rec", 100, 101, 99), worse, &buf); code != 1 || !strings.Contains(buf.String(), "failed share") {
		t.Fatalf("a higher failed share must fail: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	if code := compareFiles(mk("allocs_per_rec", 100, 101, 99), mk("allocs_per_rec", 100, 102, 98), &buf); code != 0 {
		t.Fatalf("equal sides: exit %d\n%s", code, buf.String())
	}
}

// The TCP decorator follows the frame protocol however the bytes are
// chunked, and pairs each reply with its frame.
func TestTimedConnFollowsFrames(t *testing.T) {
	table := &stampTable{recs: make([]stamps, 8)}
	c := &timedConn{table: table, handle: &collector{}}
	var stream []byte
	stream = binary.BigEndian.AppendUint32(stream, 2)
	stream = append(stream, "c0"...)
	maker := newRecordMaker(1)
	for i := 0; i < 3; i++ {
		rec := make([]byte, recordLen)
		maker.build(rec, uint64(phaseRate)<<phaseShift|uint64(i), 1)
		stream = binary.BigEndian.AppendUint32(stream, recordLen)
		stream = append(stream, rec...)
	}
	for len(stream) > 0 { // 7-byte chunks straddle every boundary
		k := min(7, len(stream))
		c.feed(stream[:k])
		stream = stream[k:]
	}
	if c.frames != 4 || len(c.pending) != 3 {
		t.Fatalf("%d frames, %d pending", c.frames, len(c.pending))
	}
	for i, p := range c.pending {
		if p.seq != uint64(phaseRate)<<phaseShift|uint64(i) {
			t.Fatalf("pending %d has seq %x", i, p.seq)
		}
	}
}

// BENCHMARK.json is generated from the metric tables; this holds the
// checked-in file to them and to the contract's limits.
func TestManifestMatchesTables(t *testing.T) {
	m := buildManifest()
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Fatalf("%d per-layer metrics", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Fatalf("%d end-to-end metrics", n)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("bad or duplicate metric %+v", d)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("setup_s missing")
	}
	for _, w := range m.Workloads {
		if len(w["why"]) == 0 || len(w["why"]) > 200 || strings.Contains(w["why"], "\n") {
			t.Errorf("workload %s: why of %d chars", w["name"], len(w["why"]))
		}
	}
	step, _ := workloadByName("drs-step")
	if why := step.why(); !strings.Contains(why, "60-180-60 rec/s") || !strings.Contains(why, "every 200 ms") {
		t.Errorf("drs-step's why misstates its frozen values: %s", why)
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	want, _ := json.Marshal(m)
	var a, b any
	if err := json.Unmarshal(data, &a); err != nil {
		t.Fatal(err)
	}
	_ = json.Unmarshal(want, &b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BENCHMARK.json differs from the tables; regenerate it with `benchmark manifest`")
	}
}
