package sim

import (
	"errors"
	"fmt"
	"math"
	"time"

	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/stats"
)

// OperatorSpec describes one station of the simulated topology; it is
// named by its index, as edges and sources name it.
type OperatorSpec struct {
	// Service samples per-tuple service time in seconds.
	Service stats.Dist
}

// EdgeSpec connects two operators.
type EdgeSpec struct {
	// From and To are operator indices.
	From, To int
	// Emit decides the child count per processed tuple.
	Emit EmissionModel
	// NetDelay samples the per-hop network delay in seconds (nil = none).
	// The DRS model deliberately ignores this; the gap between the model
	// estimate and the simulated measurement in Figures 7-8 comes from here.
	NetDelay stats.Dist
}

// SourceSpec feeds external tuples into an operator.
type SourceSpec struct {
	// Op is the target operator index.
	Op int
	// Arrivals generates the external arrival process.
	Arrivals ArrivalProcess
	// Admit, when non-nil, gates each arrival before it enters the network
	// — an ingest admission controller in front of the source. A refused
	// arrival is counted as offered-but-shed (it contributes to the
	// interval report's OfferedArrivals but spawns no tuple), which is how
	// the overload experiment runs the live admission policy in virtual
	// time.
	Admit func(now float64) bool
}

// Config assembles a simulation.
type Config struct {
	Operators []OperatorSpec
	Edges     []EdgeSpec
	Sources   []SourceSpec
	// Alloc is the initial processor count per operator.
	Alloc []int
	// Seed makes the run reproducible.
	Seed uint64
	// MaxQueue bounds each station queue; 0 means unbounded. Tuples
	// arriving at a full queue are dropped and counted (the paper's
	// "errors when the queue reaches its size limit").
	MaxQueue int
}

func (c Config) validate() error {
	if len(c.Operators) == 0 {
		return errors.New("sim: no operators")
	}
	if len(c.Alloc) != len(c.Operators) {
		return fmt.Errorf("sim: alloc length %d != %d operators", len(c.Alloc), len(c.Operators))
	}
	for i, k := range c.Alloc {
		if k < 1 {
			return fmt.Errorf("sim: operator %d allocated %d processors", i, k)
		}
	}
	for _, e := range c.Edges {
		if e.From < 0 || e.From >= len(c.Operators) || e.To < 0 || e.To >= len(c.Operators) {
			return fmt.Errorf("sim: edge %d->%d out of range", e.From, e.To)
		}
		if e.Emit == nil {
			return fmt.Errorf("sim: edge %d->%d has no emission model", e.From, e.To)
		}
	}
	if len(c.Sources) == 0 {
		return errors.New("sim: no sources")
	}
	for _, s := range c.Sources {
		if s.Op < 0 || s.Op >= len(c.Operators) {
			return fmt.Errorf("sim: source op %d out of range", s.Op)
		}
		if s.Arrivals == nil {
			return errors.New("sim: source without arrival process")
		}
	}
	return nil
}

// rootRecord tracks one external tuple's processing tree.
type rootRecord struct {
	arrival     float64
	outstanding int
}

// tuple is a unit of work at one station.
type tuple struct {
	root *rootRecord
}

// eventKind discriminates heap events.
type eventKind uint8

const (
	evArrival eventKind = iota + 1 // tuple arrives at a station
	evService                      // a server finishes a tuple
	evSource                       // external arrival due
	evWake                         // station unfreezes after a rebalance pause
)

type event struct {
	at   float64
	seq  uint64
	kind eventKind
	op   int
	tup  tuple
	src  int
	// serviceTime carries the sampled duration for evService accounting.
	serviceTime float64
}

// station is the runtime state of one operator.
type station struct {
	k           int
	busy        int
	queue       tupleRing
	frozenUntil float64
	dropped     int64

	// interval counters (drained into metrics.OpInterval)
	arrivals int64
	served   int64
	busyTime float64
}

// Sim is a running simulation. Not safe for concurrent use.
type Sim struct {
	cfg   Config
	rng   *stats.RNG
	clock float64
	seq   uint64
	heap  eventHeap

	stations []station
	outEdges [][]int // operator -> edge indices

	// rootFree recycles rootRecords: a root is released exactly once, when
	// its last outstanding node resolves, so the single-threaded simulator
	// can reuse it without further bookkeeping.
	rootFree []*rootRecord
	// countScratch holds per-edge child counts during one completeService.
	countScratch []int

	// completion statistics
	warmup          float64
	completed       stats.Summary
	completedSample stats.Sample
	keepSample      bool

	// interval counters
	intervalStart    float64
	externalArrivals int64
	offeredArrivals  int64
	sojournCount     int64
	sojournTotal     float64
	// shedTotal counts arrivals refused by source Admit gates over the
	// whole run (the cumulative audit the overload experiment reads).
	shedTotal int64

	// series collection
	bucket      float64
	bucketStart float64
	bucketSum   stats.Summary
	series      []SeriesPoint

	// onDecision lets a controller harness observe interval boundaries.
	totalCompleted int64
	// liveRoots counts external tuples whose processing tree has not yet
	// resolved — the lost-forever audit of the churn experiment: at drain
	// time it must return to zero, or a tuple leaked.
	liveRoots int64
}

// SeriesPoint is one time bucket of the Figure 9/10 curves.
type SeriesPoint struct {
	// Start is the bucket start time in seconds.
	Start float64
	// MeanSojourn is the mean total sojourn (seconds) of tuples completed
	// in the bucket; NaN if none completed.
	MeanSojourn float64
	// Count is the number of completions in the bucket.
	Count int64
}

// New validates the config and builds a simulator with all sources primed.
func New(cfg Config) (*Sim, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		cfg:      cfg,
		rng:      stats.NewRNG(cfg.Seed),
		stations: make([]station, len(cfg.Operators)),
		outEdges: make([][]int, len(cfg.Operators)),
	}
	for i := range s.stations {
		s.stations[i].k = cfg.Alloc[i]
	}
	for ei, e := range cfg.Edges {
		s.outEdges[e.From] = append(s.outEdges[e.From], ei)
	}
	for si, src := range cfg.Sources {
		gap := src.Arrivals.NextInterArrival(s.rng)
		s.push(event{at: gap, kind: evSource, src: si})
	}
	return s, nil
}

// SetWarmup discards completion statistics before t seconds (series
// buckets still record them).
func (s *Sim) SetWarmup(t float64) { s.warmup = t }

// KeepCompletionSample retains every post-warmup sojourn for quantile
// queries (costs memory; use for bounded runs).
//
//checkdoc:testonly quantile validation: TestSojournQuantilesMatchClosedForm holds queueing.SojournQuantile to the simulator through it
func (s *Sim) KeepCompletionSample() { s.keepSample = true }

// EnableSeries records mean sojourn per bucket of the given width in
// seconds (e.g. 60 for the paper's per-minute curves).
func (s *Sim) EnableSeries(bucketSeconds float64) {
	s.bucket = bucketSeconds
	s.bucketStart = s.clock
}

// Allocation returns the current per-operator processor counts.
func (s *Sim) Allocation() []int {
	k := make([]int, len(s.stations))
	for i := range s.stations {
		k[i] = s.stations[i].k
	}
	return k
}

// Dropped reports tuples dropped at full queues, per operator.
func (s *Sim) Dropped() []int64 {
	d := make([]int64, len(s.stations))
	for i := range s.stations {
		d[i] = s.stations[i].dropped
	}
	return d
}

// CompletedStats summarizes post-warmup total sojourn times (seconds).
func (s *Sim) CompletedStats() stats.Summary { return s.completed }

// CompletedSample returns the retained sojourn sample, if enabled.
//
//checkdoc:testonly quantile validation: the retained sample KeepCompletionSample turns on
func (s *Sim) CompletedSample() *stats.Sample { return &s.completedSample }

// Series returns the recorded buckets (excluding the still-open one).
func (s *Sim) Series() []SeriesPoint { return append([]SeriesPoint(nil), s.series...) }

// push schedules an event.
func (s *Sim) push(e event) {
	s.seq++
	e.seq = s.seq
	s.heap.push(e)
}

// newRoot starts a processing tree, reusing a recycled record when one is
// available.
func (s *Sim) newRoot() *rootRecord {
	s.liveRoots++
	if n := len(s.rootFree); n > 0 {
		r := s.rootFree[n-1]
		s.rootFree = s.rootFree[:n-1]
		r.arrival = s.clock
		r.outstanding = 1
		return r
	}
	return &rootRecord{arrival: s.clock, outstanding: 1}
}

// RunUntil advances the simulation to absolute time t (seconds).
func (s *Sim) RunUntil(t float64) {
	for s.heap.len() > 0 && s.heap.peek().at <= t {
		e := s.heap.pop()
		s.advanceClock(e.at)
		s.dispatch(e)
	}
	s.advanceClock(t)
}

func (s *Sim) advanceClock(t float64) {
	if t < s.clock {
		return
	}
	if s.bucket > 0 {
		for t >= s.bucketStart+s.bucket {
			s.closeBucket()
		}
	}
	s.clock = t
}

func (s *Sim) closeBucket() {
	p := SeriesPoint{Start: s.bucketStart, Count: s.bucketSum.Count()}
	if p.Count > 0 {
		p.MeanSojourn = s.bucketSum.Mean()
	} else {
		p.MeanSojourn = math.NaN()
	}
	s.series = append(s.series, p)
	s.bucketSum.Reset()
	s.bucketStart += s.bucket
}

func (s *Sim) dispatch(e event) {
	switch e.kind {
	case evSource:
		src := s.cfg.Sources[e.src]
		s.offeredArrivals++
		if src.Admit == nil || src.Admit(s.clock) {
			root := s.newRoot()
			s.externalArrivals++
			s.deliver(src.Op, tuple{root: root})
		} else {
			s.shedTotal++
		}
		gap := src.Arrivals.NextInterArrival(s.rng)
		s.push(event{at: s.clock + gap, kind: evSource, src: e.src})
	case evArrival:
		s.deliver(e.op, e.tup)
	case evService:
		s.completeService(e)
	case evWake:
		s.drainQueue(e.op)
	}
}

// deliver lands a tuple at a station: either straight into service or into
// the queue.
func (s *Sim) deliver(op int, t tuple) {
	st := &s.stations[op]
	st.arrivals++
	if s.cfg.MaxQueue > 0 && st.queue.len() >= s.cfg.MaxQueue {
		st.dropped++
		s.finishTuple(t) // dropped work still resolves the tree
		return
	}
	if st.busy < st.k && s.clock >= st.frozenUntil {
		s.startService(op, t)
	} else {
		st.queue.push(t)
	}
}

func (s *Sim) startService(op int, t tuple) {
	st := &s.stations[op]
	st.busy++
	d := s.cfg.Operators[op].Service.Sample(s.rng)
	if d < 0 {
		d = 0
	}
	s.push(event{at: s.clock + d, kind: evService, op: op, tup: t, serviceTime: d})
}

func (s *Sim) completeService(e event) {
	st := &s.stations[e.op]
	st.busy--
	st.served++
	st.busyTime += e.serviceTime
	// Sample every edge's child count first and register the children on
	// the processing tree BEFORE any delivery: a child dropped at a full
	// queue resolves synchronously, and must not complete the tree while
	// its siblings (or this tuple's own decrement) are pending.
	if n := len(s.outEdges[e.op]); cap(s.countScratch) < n {
		s.countScratch = make([]int, n)
	}
	counts := s.countScratch[:len(s.outEdges[e.op])]
	for j, ei := range s.outEdges[e.op] {
		n := s.cfg.Edges[ei].Emit.Count(s.rng)
		counts[j] = n
		e.tup.root.outstanding += n
	}
	for j, ei := range s.outEdges[e.op] {
		edge := s.cfg.Edges[ei]
		for c := 0; c < counts[j]; c++ {
			delay := 0.0
			if edge.NetDelay != nil {
				delay = edge.NetDelay.Sample(s.rng)
			}
			child := tuple{root: e.tup.root}
			if delay <= 0 {
				s.deliver(edge.To, child)
			} else {
				s.push(event{at: s.clock + delay, kind: evArrival, op: edge.To, tup: child})
			}
		}
	}
	s.finishTuple(e.tup)
	s.drainQueue(e.op)
}

// finishTuple resolves one node of a processing tree; when the last node
// resolves, the external tuple is complete and its sojourn recorded.
func (s *Sim) finishTuple(t tuple) {
	t.root.outstanding--
	if t.root.outstanding > 0 {
		return
	}
	sojourn := s.clock - t.root.arrival
	s.rootFree = append(s.rootFree, t.root) // tree resolved; recycle
	s.liveRoots--
	s.totalCompleted++
	s.sojournCount++
	s.sojournTotal += sojourn
	if s.bucket > 0 {
		s.bucketSum.Add(sojourn)
	}
	if s.clock >= s.warmup {
		s.completed.Add(sojourn)
		if s.keepSample {
			s.completedSample.Add(sojourn)
		}
	}
}

func (s *Sim) drainQueue(op int) {
	st := &s.stations[op]
	if s.clock < st.frozenUntil {
		return
	}
	for st.busy < st.k && st.queue.len() > 0 {
		s.startService(op, st.queue.pop())
	}
}

// SetAllocation applies a new processor allocation with a service pause of
// the given length (the modeled rebalance/scale cost): no new service
// starts anywhere until the pause elapses; in-flight tuples finish.
func (s *Sim) SetAllocation(k []int, pause float64) error {
	if len(k) != len(s.stations) {
		return fmt.Errorf("sim: allocation length %d != %d operators", len(k), len(s.stations))
	}
	until := s.clock + pause
	for i := range s.stations {
		if k[i] < 1 {
			return fmt.Errorf("sim: operator %d allocated %d processors", i, k[i])
		}
	}
	for i := range s.stations {
		st := &s.stations[i]
		st.k = k[i]
		if pause > 0 {
			st.frozenUntil = until
			s.push(event{at: until, kind: evWake, op: i})
		} else {
			s.drainQueue(i)
		}
	}
	return nil
}

// DrainInterval returns and resets the per-interval measurement counters as
// a metrics.IntervalReport — the same payload a live measurer would pull,
// so simulations exercise the production measurer/controller path.
func (s *Sim) DrainInterval() metrics.IntervalReport {
	dur := s.clock - s.intervalStart
	rep := metrics.IntervalReport{
		Duration:         secondsToDuration(dur),
		ExternalArrivals: s.externalArrivals,
		OfferedArrivals:  s.offeredArrivals,
		Ops:              make([]metrics.OpInterval, len(s.stations)),
		SojournCount:     s.sojournCount,
		SojournTotal:     secondsToDuration(s.sojournTotal),
	}
	for i := range s.stations {
		st := &s.stations[i]
		rep.Ops[i] = metrics.OpInterval{
			Arrivals: st.arrivals,
			Served:   st.served,
			Sampled:  st.served, // the simulator samples every tuple
			BusyTime: secondsToDuration(st.busyTime),
		}
		st.arrivals, st.served, st.busyTime = 0, 0, 0
	}
	s.intervalStart = s.clock
	s.externalArrivals = 0
	s.offeredArrivals = 0
	s.sojournCount = 0
	s.sojournTotal = 0
	return rep
}

// ShedArrivals reports the cumulative count of arrivals refused by source
// Admit gates — the virtual-time twin of the live gate's shed counter.
func (s *Sim) ShedArrivals() int64 { return s.shedTotal }

// PendingRoots reports external tuples whose processing tree has not yet
// resolved — in-flight work. After arrivals stop and the queues drain it
// returns to zero; anything else means tuples were lost forever.
func (s *Sim) PendingRoots() int64 { return s.liveRoots }

func secondsToDuration(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
