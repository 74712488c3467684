// Package ingest is the network front door of the stack: it bridges
// external clients to engine spouts and makes the DRS model the admission
// policy. The paper's control loop (§IV) assumes the measured arrival
// rate λ is the *offered* load; the moment an overloaded front end drops
// tuples that assumption breaks, so this package measures both sides of
// the drop — offered and admitted — and feeds the split back into the
// measurer, letting the Supervisor provision against true demand while
// the Gate sheds only what the current grant provably cannot hold.
//
// The pieces, client to spout:
//
//   - Listeners (ServeTCP, Handler): length-prefixed TCP frames and HTTP
//     POST bodies decode client records into tuple payloads carved from
//     an engine.Slab the listener owns (NDJSON lines are cut in place from
//     the carved body). Refusals are explicit backpressure — HTTP 429 or a
//     TCP NACK, both carrying a retry-after hint — never silent drops or
//     blocked connections.
//   - Gate: per-client token buckets (contract enforcement) in front of a
//     cluster-level admission controller (capacity protection). Every
//     replanning round the gate reads the Supervisor's latest snapshot
//     and runs planAdmission: the largest demand scaling whose Program
//     (6) allocation still fits the granted Kmax is admitted; the excess
//     is shed lowest-weight-clients-first by deterministic thinning. The
//     Appendix-B guard (ScaleOutViable) tells a transient shed — machines
//     are coming — from a persistent one at the provider cap.
//   - Ring: the bounded, batch-aware MPSC hand-off into the engine,
//     drained by engine.NetworkSpout, which hands each popped batch — with
//     its trace ids and, in durable mode, its ack — to the engine's one
//     injection body. A ring at its bound is backpressure, not memory
//     growth; below the bound its storage follows the backlog.
//   - SupervisedTarget: wraps the supervisor's Target so every interval
//     report carries OfferedArrivals = admitted + shed, the measurement
//     that closes the loop (metrics.Measurer smooths the two series
//     independently; loop.Supervisor scales decisions to offered load).
//
// Both listeners work per burst, not per record: what arrived together —
// the frames one TCP read delivered, the lines of one HTTP body — goes
// through Client.admit as a unit: the per-record verdict rules in arrival
// order, one ring lock round, in durable mode one WAL append that returns
// before any record of the burst is acknowledged, one vectored reply.
// Client.Offer is the same path for a burst of one: two atomic counters,
// one token bucket and one bounded-ring push, zero allocations. A listener
// — and Gate.Replay — pays none per record either: the record's bytes, its
// one-slot Values and the box its []byte takes as the payload's `any` are
// carved from the listener's slab.
package ingest

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/obs"
	"github.com/drs-repro/drs/internal/wal"
)

// ErrClosed is returned by Gate operations after Close.
var ErrClosed = errors.New("ingest: gate closed")

// ShedReason classifies why an offered record was refused.
type ShedReason int

const (
	// ShedNone: the record was admitted.
	ShedNone ShedReason = iota
	// ShedRateLimit: the client exceeded its own token-bucket rate — a
	// per-client contract refusal, not cluster overload. Excluded from the
	// offered-load provisioning signal.
	ShedRateLimit
	// ShedOverload: the cluster admission controller shed the record —
	// the DRS model says the current grant cannot hold the offered demand
	// under Tmax.
	ShedOverload
	// ShedBacklog: the hand-off ring was full — instantaneous backpressure
	// (e.g. during a rebalance pause) even when the plan admits.
	ShedBacklog
)

// String names the reason.
func (r ShedReason) String() string {
	switch r {
	case ShedNone:
		return "admitted"
	case ShedRateLimit:
		return "rate-limit"
	case ShedOverload:
		return "overload"
	case ShedBacklog:
		return "backlog"
	default:
		return "unknown"
	}
}

// Verdict is the outcome of one offered record.
type Verdict struct {
	// Admitted reports whether the record entered the hand-off ring.
	Admitted bool
	// Reason classifies a refusal (ShedNone when admitted).
	Reason ShedReason
	// RetryAfter is the backpressure hint returned to the client
	// (Retry-After header / NACK payload).
	RetryAfter time.Duration
}

// ControlSource exposes the supervisor state the admission policy
// consults; *loop.Supervisor implements it.
type ControlSource interface {
	// LastSnapshot returns the most recent control snapshot and whether
	// one exists yet.
	LastSnapshot() (core.Snapshot, bool)
}

// GateConfig parameterizes a Gate.
type GateConfig struct {
	// Tmax is the latency target in seconds the admission controller
	// defends (required for model shedding; 0 disables it, leaving only
	// token buckets and ring backpressure).
	Tmax float64
	// MaxSlots is the provider cap in executor slots, for the Appendix-B
	// scale-out-viability verdict (0 = uncapped).
	MaxSlots int
	// RingCapacity bounds the hand-off ring's backlog (default 4096); its
	// storage grows toward the bound with the backlog (see Ring).
	RingCapacity int
	// ReplanEvery is the admission replanning cadence (default 1s), and
	// the backpressure hint of overload/backlog sheds — the earliest the
	// verdict can change.
	ReplanEvery time.Duration
	// Now overrides the clock; nil uses time.Now. The virtual-time arcs
	// set it to the simulated clock.
	Now func() time.Time
	// Name labels this gate's records in the decision log (default
	// "gate").
	Name string
	// DecisionLog, when set, receives one shed-plan record per Replan
	// round, stamped with the gate's clock: offered rate, sustainable
	// rate, admit fraction, the Appendix-B scale-out verdict, and the
	// records admitted and refused (overload or backlog) since the
	// previous round. Replan runs off the admit path, so the 0-alloc Offer
	// fast path is untouched.
	DecisionLog *obs.Log
	// Tracer, when set, samples admitted records at the ring push: a
	// record whose admission seq wins the tracer's deterministic hash
	// carries that seq as its trace id through the ring, the spout and
	// every hop to the final ack (see engine.TracedBatchSource). A
	// sampled admit emits a gate span (and, in durable mode, a WAL span
	// covering the append); a sampled-out admit pays one hash — no clock
	// read, no allocation.
	Tracer *obs.Tracer
}

// GateStats is a point-in-time reading of the gate's cumulative counters.
type GateStats struct {
	// Offered counts every record clients presented; Admitted those that
	// entered the ring.
	Offered, Admitted int64
	// ShedRateLimit, ShedOverload and ShedBacklog split the refusals by
	// reason.
	ShedRateLimit, ShedOverload, ShedBacklog int64
	// AdmitFraction and SustainableRate echo the current plan.
	AdmitFraction, SustainableRate float64
	// ScaleOutViable echoes the current Appendix-B guard verdict.
	ScaleOutViable bool
	// Replayed counts records re-injected from the WAL on boot (durable
	// mode only).
	Replayed int64
	// Watermark is the completion tracker's contiguous ack watermark
	// (durable mode only; 0 otherwise).
	Watermark uint64
	// Clients counts the registered clients; Evicted those the replan
	// rounds have dropped as idle.
	Clients int
	Evicted int64
}

// Gate is the admission controller: clients offer records, the gate
// applies per-client token buckets and the cluster-level plan, and
// admitted payloads flow through the bounded ring to the NetworkSpout.
// All methods are safe for concurrent use; Offer is the zero-alloc fast
// path.
type Gate struct {
	cfg  GateConfig
	ring *Ring

	// mu serializes the slow path: replanning rounds, control rewiring
	// and lifecycle. Client registration and lookup never take it — the
	// sharded registry has its own per-stripe locks (see shard.go).
	mu      sync.Mutex
	clients *clientMap
	control ControlSource
	planned struct {
		lastAt time.Time
		// admitted and lost are the admitted and the overload+backlog
		// refusal totals at lastAt, which the next round's record counts
		// its Gain and Loss from.
		admitted, lost int64
	}
	scratch replanScratch

	// Durable mode (see durable.go): a non-nil wal means Offer appends
	// each admitted record to the log before acknowledging it and Replay
	// streams the log's recovered unacked records back; tracker turns
	// engine batch completions into the contiguous ack watermark. wal is an
	// atomic pointer because Offer reads it lock-free; the remaining
	// durable fields are guarded by mu.
	wal           atomic.Pointer[wal.Log]
	tracker       *wal.Tracker
	lastWatermark uint64
	replayed      atomic.Int64

	offered       atomic.Int64
	admitted      atomic.Int64
	shedRateLimit atomic.Int64
	shedOverload  atomic.Int64
	shedBacklog   atomic.Int64
	evicted       atomic.Int64
	// intervalShed accumulates overload+backlog sheds for DrainShed — the
	// offered-vs-admitted probe feeding interval reports.
	intervalShed atomic.Int64

	admitFraction   atomicFloat
	sustainableRate atomicFloat
	scaleOutViable  atomic.Bool

	closed  atomic.Bool
	stopRun chan struct{}
	runDone chan struct{}
}

// atomicFloat is a float64 behind an atomic.Uint64 (bits).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

// NewGate validates the config and builds a gate.
func NewGate(cfg GateConfig) *Gate {
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 4096
	}
	if cfg.ReplanEvery <= 0 {
		cfg.ReplanEvery = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Name == "" {
		cfg.Name = "gate"
	}
	g := &Gate{
		cfg:     cfg,
		ring:    NewRing(cfg.RingCapacity),
		clients: newClientMap(),
	}
	g.ring.tracer = cfg.Tracer
	g.admitFraction.store(1)
	g.scaleOutViable.Store(true)
	return g
}

// Ring exposes the hand-off ring — the engine.BatchSource a NetworkSpout
// drains.
func (g *Gate) Ring() *Ring { return g.ring }

// SetControl installs (or replaces) the supervisor the plan reads; without
// one the gate admits everything. The gate and the supervisor reference
// each other — the supervisor's target is wrapped by the gate's probe, the
// gate reads the supervisor's snapshots — so one of the two is always
// wired after construction.
func (g *Gate) SetControl(c ControlSource) {
	g.mu.Lock()
	g.control = c
	g.mu.Unlock()
}

// Client registers (or returns) the client with the given id. weight
// orders shedding — higher weights shed last; equal offered demand at
// equal weight sheds alphabetically-later ids first (deterministic).
// rate/burst parameterize the client's token bucket (rate <= 0 disables
// it). Parameters of an existing client are left unchanged. Lookup is
// shard-local — concurrent resolution of distinct ids never contends on
// a gate-wide lock. The returned client is held: the replan round never
// evicts it, so its counters and thinning state last as long as the gate.
func (g *Gate) Client(id string, weight, rate float64, burst int) *Client {
	return g.clients.getOrCreate(id, func() *Client {
		w := weight
		if w <= 0 {
			w = 1
		}
		c := &Client{g: g, id: id, weight: w, bucket: newTokenBucket(rate, burst)}
		// A fresh client starts at the plan-wide fraction, not admit-all:
		// client ids are client-chosen (headers, hello frames), so a free
		// first round per id would let id rotation bypass overload shedding
		// entirely until the next replan.
		c.admitPermille.Store(uint32(g.admitFraction.load() * permilleScale))
		return c
	})
}

// Start launches the background replanning loop. Stop it with Close.
func (g *Gate) Start() error {
	if g.closed.Load() {
		return ErrClosed
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.stopRun != nil {
		return errors.New("ingest: gate already started")
	}
	g.stopRun = make(chan struct{})
	g.runDone = make(chan struct{})
	go g.run(g.stopRun, g.runDone)
	return nil
}

func (g *Gate) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	tick := time.NewTicker(g.cfg.ReplanEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			g.Replan()
		}
	}
}

// Close shuts the front door: the replanning loop stops, new offers are
// refused, and the hand-off ring closes — the NetworkSpout drains what
// was already admitted and then exits, so the engine's Stop, called after
// Close, runs every admitted tuple or strands it, counted (node.Drain).
func (g *Gate) Close() {
	if !g.closed.CompareAndSwap(false, true) {
		return
	}
	g.mu.Lock()
	stop, done := g.stopRun, g.runDone
	g.stopRun, g.runDone = nil, nil
	g.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	g.ring.Close()
}

// permilleScale is the resolution of the per-client thinning fraction.
const permilleScale = 1000

// thinAdmit is the gate's deterministic thinning verdict: of every thousand
// sequence numbers, admit ⌊n·p/1000⌋ − ⌊(n−1)·p/1000⌋ — the exact long-run
// fraction with no RNG, spread evenly instead of front-loaded, so a steady
// client meets no bursts of bad luck. permille ≥ 1000 admits everything and
// ≤ 0 nothing. Client.admit thins with it.
func thinAdmit(seq uint64, permille int64) bool {
	if permille >= permilleScale {
		return true
	}
	if permille <= 0 {
		return false
	}
	p := uint64(permille)
	return seq*p/permilleScale != (seq-1)*p/permilleScale
}

// replanScratch is what one Replan round reuses from the last: the client
// list and the per-client vectors derived from it. replanning serializes
// whole rounds — in production the run goroutine is the only caller — so a
// round owns the scratch from its first line to its last.
type replanScratch struct {
	replanning     sync.Mutex
	list           []*Client
	rates, weights []float64
	ids            []string
	permilles      []uint32
}

// Replan recomputes the cluster-level admission plan from the supervisor's
// latest snapshot and redistributes the admitted budget across clients by
// weight. Called by the Start loop every ReplanEvery; tests and
// virtual-time drivers call it directly.
func (g *Gate) Replan() {
	sc := &g.scratch
	sc.replanning.Lock()
	defer sc.replanning.Unlock()
	now := g.cfg.Now()
	g.mu.Lock()
	control := g.control
	sc.list = g.clients.snapshot(sc.list[:0])
	last := g.planned.lastAt
	g.planned.lastAt = now
	admitted, lost := g.admitted.Load(), g.shedOverload.Load()+g.shedBacklog.Load()
	gain, loss := admitted-g.planned.admitted, lost-g.planned.lost
	g.planned.admitted, g.planned.lost = admitted, lost

	// Per-client offered rates over the round just ended. Rate-limited
	// refusals are excluded: a client hammering past its own contract is
	// not demand the cluster should provision (or budget-share) for.
	dt := now.Sub(last).Seconds()
	if last.IsZero() || dt <= 0 {
		dt = g.cfg.ReplanEvery.Seconds()
	}
	sc.rates = sc.rates[:0]
	provisioningRate := 0.0
	for _, c := range sc.list {
		rate := c.drainOfferedRate(dt)
		provisioningRate += rate
		sc.rates = append(sc.rates, rate)
	}
	g.mu.Unlock()

	var plan Plan
	plan.AdmitFraction, plan.ScaleOutViable = 1, true
	plan.SustainableRate = provisioningRate
	plannedAlloc, plannedKmax := 0, 0
	if control != nil && g.cfg.Tmax > 0 {
		if snap, ok := control.LastSnapshot(); ok {
			plan = planAdmission(snap, g.cfg.Tmax, g.cfg.MaxSlots, provisioningRate)
			for _, k := range snap.Alloc {
				plannedAlloc += k
			}
			plannedKmax = snap.Kmax
		}
	}
	g.admitFraction.store(plan.AdmitFraction)
	g.sustainableRate.store(plan.SustainableRate)
	g.scaleOutViable.Store(plan.ScaleOutViable)
	if g.cfg.DecisionLog != nil {
		g.cfg.DecisionLog.Emit(&obs.Record{
			At: now.UnixNano(), Kind: obs.KindShedPlan, Tenant: g.cfg.Name,
			From: plannedAlloc, To: plannedKmax,
			Fraction: plan.AdmitFraction, Rate: plan.SustainableRate,
			Lambda0: provisioningRate, Flag: plan.ScaleOutViable,
			Gain: float64(gain), Loss: float64(loss),
		})
	}

	// Only a shedding plan has a fill order, and only the fill order reads
	// weights and ids: a gate that never sheds never gathers them.
	sc.weights, sc.ids = sc.weights[:0], sc.ids[:0]
	if plan.AdmitFraction < 1 {
		for _, c := range sc.list {
			sc.weights, sc.ids = append(sc.weights, c.weight), append(sc.ids, c.id)
		}
	}
	sc.permilles = admitPermilles(sc.permilles, plan, sc.weights, sc.ids, sc.rates)
	for i, p := range sc.permilles {
		sc.list[i].admitPermille.Store(p)
	}
	g.evictIdle(now.UnixNano())

	// Durable mode piggybacks watermark compaction on the replan cadence:
	// one watermark frame and a retention sweep per round, off the admit
	// fast path. Errors surface through the next SyncWatermark caller.
	if g.wal.Load() != nil {
		_ = g.SyncWatermark()
	}
}

// evictIdle drops from the registry every client of the round that a fresh
// one would equal: no caller holds it, its rate this round was 0 and its
// token bucket has refilled to its burst. A fresh client starts at the
// plan-wide fraction, which is what admitPermilles gives an idle one, so
// the only state lost is the thinning seq. It then clears the round's list
// and ids, so the scratch pins nothing it evicted. It allocates nothing.
func (g *Gate) evictIdle(nowNanos int64) {
	sc := &g.scratch
	g.mu.Lock() // evict compares against lastOffered, which is g.mu's
	for i, c := range sc.list {
		if sc.rates[i] == 0 && c.holds.Load() == 0 && c.bucket.full(nowNanos) && g.clients.evict(c) {
			g.evicted.Add(1)
		}
	}
	g.mu.Unlock()
	clear(sc.list)
	clear(sc.ids)
}

// admitPermilles distributes one plan's sustainable budget across
// clients: the budget is filled highest-weight-first (ties break by id
// for determinism), so the marginal — partially admitted — client and
// everyone below it are the cheapest traffic. Idle clients get the
// plan-wide fraction: their next burst should see the cluster verdict,
// not a stale free pass. Returned values are thinning fractions in
// permille, matching the offered rates' order. dst is the caller's scratch
// from an earlier call (nil the first time): the result reuses its storage
// — one element per client, and while shedding as many again behind them
// for the fill order — so a caller that hands the result back allocates
// nothing once it has grown.
func admitPermilles(dst []uint32, plan Plan, weights []float64, ids []string, rates []float64) []uint32 {
	n := len(rates)
	if plan.AdmitFraction >= 1 {
		out := slices.Grow(dst[:0], n)[:n]
		for i := range out {
			out[i] = permilleScale
		}
		return out
	}
	dst = slices.Grow(dst[:0], 2*n)[:2*n]
	out, order := dst[:n], dst[n:]
	for i := range order {
		order[i] = uint32(i)
	}
	slices.SortFunc(order, func(a, b uint32) int {
		if weights[a] != weights[b] {
			return cmp.Compare(weights[b], weights[a])
		}
		return cmp.Compare(ids[a], ids[b])
	})
	budget := plan.SustainableRate
	for _, i := range order {
		want := rates[i]
		if want <= 0 {
			out[i] = uint32(plan.AdmitFraction * permilleScale)
			continue
		}
		give := want
		if give > budget {
			give = budget
		}
		budget -= give
		out[i] = uint32(give / want * permilleScale)
	}
	return out
}

// Stats reads the cumulative counters and the current plan.
func (g *Gate) Stats() GateStats {
	return GateStats{
		Offered:         g.offered.Load(),
		Admitted:        g.admitted.Load(),
		ShedRateLimit:   g.shedRateLimit.Load(),
		ShedOverload:    g.shedOverload.Load(),
		ShedBacklog:     g.shedBacklog.Load(),
		AdmitFraction:   g.admitFraction.load(),
		SustainableRate: g.sustainableRate.load(),
		ScaleOutViable:  g.scaleOutViable.Load(),
		Replayed:        g.replayed.Load(),
		Watermark:       g.Watermark(),
		Clients:         g.clients.size(),
		Evicted:         g.evicted.Load(),
	}
}

// DrainShed atomically reads and resets the interval shed counter —
// overload and backlog refusals since the previous drain, the part of
// offered demand that never reached a spout. SupervisedTarget adds it to
// the engine's admitted count to report OfferedArrivals.
func (g *Gate) DrainShed() int64 { return g.intervalShed.Swap(0) }

// Client is one registered traffic source: an id, a shedding weight, a
// token bucket and the thinning state the cluster plan drives.
type Client struct {
	g      *Gate
	id     string
	weight float64
	bucket tokenBucket
	holds  atomic.Int32 // lookups not yet released; a held client is never evicted

	seq           atomic.Uint64
	admitPermille atomic.Uint32

	offered     atomic.Int64
	shed        atomic.Int64 // all refusals; read by the weighted-shedding tests
	rlShed      atomic.Int64
	lastOffered int64 // replan-loop snapshot (guarded by g.mu)
}

// release gives back the hold a lookup took. A listener releases once it
// offers nothing more through the client: the HTTP handler after its
// request, the TCP loop when its connection ends.
func (c *Client) release() { c.holds.Add(-1) }

// drainOfferedRate reports the client's offered rate — net of its own
// rate-limit refusals — since the last replan round. Called under g.mu by
// the replan loop only.
func (c *Client) drainOfferedRate(dt float64) float64 {
	cur := c.offered.Load() - c.rlShed.Load()
	rate := float64(cur-c.lastOffered) / dt
	c.lastOffered = cur
	return rate
}

// Offer is the admit fast path — decode → admit → ring, zero allocations:
// the client's token bucket, the cluster thinning verdict and a bounded
// ring push. The payload v must not be mutated by the caller afterwards;
// it becomes the tuple the topology processes. It is admit for a burst of
// one, on the stack.
func (c *Client) Offer(v engine.Values) Verdict {
	var o [1]offer
	var rec [1][]byte
	o[0].v = v
	c.admit(o[:], rec[:0])
	return o[0].verdict
}

// burstMax bounds how many records a listener admits as one unit: the
// frames one TCP read delivered, a run of one request's NDJSON lines. It
// bounds the per-connection scratch and how long one burst holds the ring
// lock.
const burstMax = 256

// offer is one record on its way through admit: the payload in, the
// verdict out.
type offer struct {
	v       engine.Values
	verdict Verdict
	trace   uint64 // set by the ring push: the trace id of a sampled admit, else 0
}

// burst is a listener's unit of admission: the records that arrived
// together, in arrival order. The listener adds the payloads, admits them
// and answers from the verdicts; it may reuse the burst after reset,
// because the ring takes its own copy of each admitted payload header.
type burst struct {
	offers []offer
	recs   [][]byte // admit's scratch, kept across bursts
}

// add appends one offered payload.
func (b *burst) add(v engine.Values) { b.offers = append(b.offers, offer{v: v}) }

// admit offers the burst on behalf of client c.
func (b *burst) admit(c *Client) { b.recs = c.admit(b.offers, b.recs[:0]) }

// reset empties the burst, dropping its references to the payloads.
func (b *burst) reset() {
	clear(b.offers)
	clear(b.recs)
	b.offers, b.recs = b.offers[:0], b.recs[:0]
}

// admit is the one admission path, for a burst of any size. Per record, in
// arrival order, the verdict rules: the client's token bucket, the cluster
// thinning verdict and — in durable mode, where the log must be able to
// rebuild the tuple — the payload shape, checked before the push so a
// refusal leaves no orphan in the ring. Then one ring lock round that
// pushes as many of the survivors as fit under consecutive admission seqs
// and refuses the rest as backlog, and the durable and traced tail (seal).
// Every offer leaves with its verdict set, and offered == admitted + shed
// holds on the gate's and the client's books. recs is scratch for the
// durable append — it comes back, grown if it had to, for the next burst —
// and with room in it admit allocates nothing.
func (c *Client) admit(offers []offer, recs [][]byte) [][]byte {
	g := c.g
	c.offered.Add(int64(len(offers)))
	g.offered.Add(int64(len(offers)))
	if g.closed.Load() {
		c.refuseClosed(offers)
		return recs
	}
	l := g.wal.Load()
	var now int64
	if c.bucket.rate > 0 { // skip the clock read entirely when unlimited
		now = g.cfg.Now().UnixNano()
	}
	permille := c.admitPermille.Load()
	survivors := 0
	for i := range offers {
		o := &offers[i]
		if c.bucket.rate > 0 {
			if ok, retry := c.bucket.take(now); !ok {
				o.verdict = Verdict{Reason: ShedRateLimit, RetryAfter: retry}
				continue
			}
		}
		if permille < permilleScale && !thinAdmit(c.seq.Add(1), int64(permille)) {
			o.verdict = Verdict{Reason: ShedOverload, RetryAfter: g.cfg.ReplanEvery}
			continue
		}
		if l != nil {
			rec, ok := recordBytes(o.v)
			if !ok {
				o.verdict = g.backlog()
				continue
			}
			recs = append(recs, rec)
		}
		o.verdict = Verdict{Admitted: true} // a survivor; the ring may still refuse it
		survivors++
	}
	pushed := 0
	if survivors > 0 {
		var first uint64
		var sampled bool
		first, pushed, sampled = g.ring.pushBurst(offers, g.cfg.ReplanEvery, g.ring.bound)
		if pushed > 0 && (l != nil || sampled) {
			pushed = c.seal(offers, recs, l, first, pushed, sampled)
		}
	}
	if pushed > 0 {
		g.admitted.Add(int64(pushed))
	}
	if pushed < len(offers) {
		c.countRefusals(offers)
	}
	return recs
}

// backlog is the refusal of a record the gate has no room for.
func (g *Gate) backlog() Verdict {
	return Verdict{Reason: ShedBacklog, RetryAfter: g.cfg.ReplanEvery}
}

// refuseClosed refuses a burst offered to a closed gate.
func (c *Client) refuseClosed(offers []offer) {
	for i := range offers {
		offers[i].verdict = c.g.backlog()
	}
	c.shed.Add(int64(len(offers)))
	c.g.shedBacklog.Add(int64(len(offers)))
}

// countRefusals books a burst's refusals from the verdicts handed out, so
// the counters say what the client was told. Overload and backlog refusals
// are demand that never reached a spout — they feed the offered-load
// probe; a client past its own rate limit is not.
func (c *Client) countRefusals(offers []offer) {
	var rateLimited, overload, backlogged int64
	for i := range offers {
		switch v := offers[i].verdict; {
		case v.Admitted:
		case v.Reason == ShedRateLimit:
			rateLimited++
		case v.Reason == ShedOverload:
			overload++
		default:
			backlogged++
		}
	}
	g := c.g
	c.shed.Add(rateLimited + overload + backlogged)
	if rateLimited > 0 {
		c.rlShed.Add(rateLimited)
		g.shedRateLimit.Add(rateLimited)
	}
	if overload > 0 {
		g.shedOverload.Add(overload)
	}
	if backlogged > 0 {
		g.shedBacklog.Add(backlogged)
	}
	if overload+backlogged > 0 {
		g.intervalShed.Add(overload + backlogged)
	}
}

// seal is the tail of an admit whose ring push left work to do: with a log
// l, one WAL append covering the pushed records — the first survivors, so
// their loggable bytes are the first of recs — which must return before any
// of them keeps its Admitted verdict (the listener's ACK rides on it, and
// when it fails none does); and the spans of the sampled ones. It returns
// how many records stay admitted: pushed, or none.
func (c *Client) seal(offers []offer, recs [][]byte, l *wal.Log, first uint64, pushed int, sampled bool) int {
	g := c.g
	// Sampled admits bracket the WAL append with wall stamps; a burst with
	// none never reads a clock for tracing.
	var start int64
	if sampled {
		start = g.cfg.Now().UnixNano()
	}
	if l != nil {
		if err := l.AppendBatch(first, recs[:pushed]); err != nil {
			// The records are in the ring and may process, but the client is
			// NOT acknowledged — on its retry at-least-once may duplicate,
			// never lose.
			for i := range offers {
				if offers[i].verdict.Admitted {
					offers[i].verdict = g.backlog()
				}
			}
			return 0
		}
	}
	if sampled {
		c.emitAdmitSpans(offers, start, l != nil)
	}
	return pushed
}

// emitAdmitSpans marks each sampled admit of a burst. The gate span is the
// admit mark: zero duration, stamped when the burst entered the ring,
// labeled with the client id so the assembler can attribute the whole
// trace to a tenant. In durable mode a WAL span covers the append the
// record's ACK waited for.
func (c *Client) emitAdmitSpans(offers []offer, start int64, durable bool) {
	tr := c.g.cfg.Tracer
	var walNS int64
	if durable {
		walNS = c.g.cfg.Now().UnixNano() - start
	}
	for i := range offers {
		if offers[i].trace == 0 {
			continue
		}
		span := obs.SpanRecord{Trace: offers[i].trace, Kind: obs.SpanGate, Tenant: c.id, StartNS: start}
		tr.EmitSpan(&span)
		if durable {
			span = obs.SpanRecord{Trace: offers[i].trace, Kind: obs.SpanWAL, Tenant: c.id, StartNS: start, DurNS: walNS}
			tr.EmitSpan(&span)
		}
	}
}
