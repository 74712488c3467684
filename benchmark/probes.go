package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/apps/vld"
	"github.com/drs-repro/drs/internal/cluster"
	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/loop"
	"github.com/drs-repro/drs/internal/metrics"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/topology"
	"github.com/drs-repro/drs/internal/wal"
	"github.com/drs-repro/drs/internal/worker"
)

// Layer probes: each layer alone, driven through its public functions and
// timed from outside, so that a change to one layer has a number that no
// other layer's noise reaches. A probe repeats probeRepeats times for
// probeSlice each; the metric is the median, and the minimum and maximum
// are printed beside it so the probe's own noise is on the page.
const (
	probeRepeats = 6
	probeSlice   = 40 * time.Millisecond
)

// probeStat is one probe's repeats reduced.
type probeStat struct {
	Median, Min, Max float64
}

// timeOps runs fn for probeSlice per repeat; fn works until the deadline
// and returns how many operations it did. The stat is ns per operation.
func timeOps(fn func(deadline time.Time) int) probeStat {
	vals := make([]float64, 0, probeRepeats)
	for r := 0; r < probeRepeats; r++ {
		start := time.Now()
		ops := fn(start.Add(probeSlice))
		if ops > 0 {
			vals = append(vals, float64(time.Since(start))/float64(ops))
		}
	}
	return reduce(vals)
}

func reduce(vals []float64) probeStat {
	if len(vals) == 0 {
		return probeStat{}
	}
	s := probeStat{Median: median(vals), Min: vals[0], Max: vals[0]}
	for _, v := range vals {
		s.Min, s.Max = min(s.Min, v), max(s.Max, v)
	}
	return s
}

// probe is one named layer probe. run gets a scratch directory of its own.
type probe struct {
	name string
	run  func(dir string) (probeStat, error)
}

var probes = []probe{
	{"ingest.probe.handler_ndjson_ns_per_rec", func(string) (probeStat, error) { return probeHandler(64) }},
	{"ingest.probe.handler_single_ns", func(string) (probeStat, error) { return probeHandler(1) }},
	{"ingest.probe.tcp_ns_per_rec", probeTCP},
	{"ingest.probe.offer_ns", func(string) (probeStat, error) { return probeOffer(0) }},
	{"ingest.probe.offer_ratelimited_ns", func(string) (probeStat, error) { return probeOffer(1e9) }},
	{"ingest.probe.offer_durable_ns", probeOfferDurable},
	{"wal.probe.append_batch_ns_per_rec", probeWALAppend},
	{"wal.probe.recover_ns_per_rec", probeWALRecover},
	{"worker.probe.shuttle_batch_rtt_ns", probeShuttle},
	{"engine.probe.hop_ns", probeHop},
	{"core.probe.assign_ns", func(string) (probeStat, error) { return probeCore(false) }},
	{"core.probe.min_processors_ns", func(string) (probeStat, error) { return probeCore(true) }},
	{"cluster.probe.arbitrate_ns", probeArbitrate},
	{"loop.probe.tick_ns", probeTick},
	{"sim.probe.events_per_s", probeSim},
}

// runProbes runs every probe and prints median, min and max of each.
func runProbes(dir string) map[string]float64 {
	out := make(map[string]float64, len(probes))
	fmt.Printf("  layer probes (%d repeats of %v; median [min .. max])\n", probeRepeats, probeSlice)
	for _, p := range probes {
		sub, err := os.MkdirTemp(dir, "probe-")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: probe scratch:", err)
			continue
		}
		st, err := p.run(sub)
		os.RemoveAll(sub)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: probe %s: %v\n", p.name, err)
			continue
		}
		out[p.name] = st.Median
		fmt.Printf("    %-42s %14.1f [%.1f .. %.1f]\n", p.name, st.Median, st.Min, st.Max)
	}
	return out
}

func probeRecords(n int) [][]byte {
	maker := newRecordMaker(1)
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = make([]byte, recordLen)
		maker.build(recs[i], uint64(i), int64(i))
	}
	return recs
}

// drainedGate is a gate whose ring a goroutine empties as fast as it
// fills, so a probe times the front door and not a full ring.
func drainedGate(cfg ingest.GateConfig) (*ingest.Gate, func()) {
	cfg.RingCapacity = 1 << 15
	g := ingest.NewGate(cfg)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]engine.Values, 0, 1024)
		for {
			if _, ok := g.Ring().PopBatch(done, buf); !ok {
				return
			}
		}
	}()
	return g, func() { g.Close(); close(done); wg.Wait() }
}

func probeHandler(batch int) (probeStat, error) {
	g, stop := drainedGate(ingest.GateConfig{})
	defer stop()
	h := ingest.Handler(g, ingest.ListenerConfig{})
	var body []byte
	for _, rec := range probeRecords(batch) {
		body = append(body, rec...)
		if batch > 1 {
			body = append(body, '\n')
		}
	}
	return timeOps(func(deadline time.Time) int {
		ops := 0
		for time.Now().Before(deadline) {
			req := httptest.NewRequest("POST", "/ingest", bytes.NewReader(body))
			if batch > 1 {
				req.Header.Set("Content-Type", "application/x-ndjson")
			}
			h.ServeHTTP(httptest.NewRecorder(), req)
			ops += batch
		}
		return ops
	}), nil
}

func probeTCP(string) (probeStat, error) {
	g, stop := drainedGate(ingest.GateConfig{})
	defer stop()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return probeStat{}, err
	}
	defer l.Close()
	go ingest.ServeTCP(l, g, ingest.ListenerConfig{})
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return probeStat{}, err
	}
	defer conn.Close()
	frames := binary.BigEndian.AppendUint32(nil, 5)
	frames = append(frames, "probe"...)
	if _, err := conn.Write(frames); err != nil {
		return probeStat{}, err
	}
	frames = frames[:0]
	for _, rec := range probeRecords(pipelineDepth) {
		frames = binary.BigEndian.AppendUint32(frames, recordLen)
		frames = append(frames, rec...)
	}
	replies := make([]byte, 5*pipelineDepth)
	var ioErr error
	st := timeOps(func(deadline time.Time) int {
		ops := 0
		for ioErr == nil && time.Now().Before(deadline) {
			if _, ioErr = conn.Write(frames); ioErr == nil {
				_, ioErr = io.ReadFull(conn, replies)
			}
			ops += pipelineDepth
		}
		return ops
	})
	return st, ioErr
}

func probeOffer(rate float64) (probeStat, error) {
	g, stop := drainedGate(ingest.GateConfig{})
	defer stop()
	c := g.Client("probe", 1, rate, int(rate))
	v := engine.Values{probeRecords(1)[0]}
	return timeOps(func(deadline time.Time) int {
		ops := 0
		for time.Now().Before(deadline) {
			for i := 0; i < 256; i++ {
				c.Offer(v)
			}
			ops += 256
		}
		return ops
	}), nil
}

// probeOfferDurable times the durable admit through a real group commit:
// two appenders, a consumer that acks every batch at once.
func probeOfferDurable(dir string) (probeStat, error) {
	l, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		return probeStat{}, err
	}
	defer l.Close()
	g := ingest.NewGate(ingest.GateConfig{RingCapacity: 1 << 15})
	if err := g.AttachWAL(l); err != nil {
		return probeStat{}, err
	}
	src, ok := g.Source().(engine.AckBatchSource)
	if !ok {
		return probeStat{}, errors.New("durable source is not acked")
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]engine.Values, 0, 1024)
		for {
			_, ack, ok := src.PopBatchAcked(done, buf)
			if !ok {
				return
			}
			if ack != nil {
				ack()
			}
		}
	}()
	defer func() { g.Close(); close(done); wg.Wait() }()
	rec := probeRecords(1)[0]
	clients := []*ingest.Client{g.Client("a", 1, 0, 0), g.Client("b", 1, 0, 0)}
	return timeOps(func(deadline time.Time) int {
		var ops atomic.Int64
		var aw sync.WaitGroup
		for _, c := range clients {
			aw.Add(1)
			go func(c *ingest.Client) {
				defer aw.Done()
				v := engine.Values{rec}
				for time.Now().Before(deadline) {
					c.Offer(v)
					ops.Add(1)
				}
			}(c)
		}
		aw.Wait()
		return int(ops.Load())
	}), nil
}

func probeWALAppend(dir string) (probeStat, error) {
	l, _, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal")})
	if err != nil {
		return probeStat{}, err
	}
	defer l.Close()
	recs := probeRecords(64)
	seq := uint64(1)
	var appendErr error
	st := timeOps(func(deadline time.Time) int {
		ops := 0
		for appendErr == nil && time.Now().Before(deadline) {
			appendErr = l.AppendBatch(seq, recs)
			seq += uint64(len(recs))
			ops += len(recs)
		}
		return ops
	})
	return st, appendErr
}

// probeWALRecover times wal.Open's recovery scan over a 20000-record log,
// per record. One repeat is one scan.
func probeWALRecover(dir string) (probeStat, error) {
	const n = 20000
	walDir := filepath.Join(dir, "wal")
	if _, err := preseedWAL(walDir, newRecordMaker(1), n); err != nil {
		return probeStat{}, err
	}
	vals := make([]float64, 0, probeRepeats)
	for r := 0; r < probeRepeats; r++ {
		start := time.Now()
		l, rec, err := wal.Open(wal.Options{Dir: walDir})
		elapsed := time.Since(start)
		if err != nil {
			return probeStat{}, err
		}
		if err := l.Close(); err != nil {
			return probeStat{}, err
		}
		if rec.Records != n {
			return probeStat{}, fmt.Errorf("recovered %d of %d records", rec.Records, n)
		}
		vals = append(vals, float64(elapsed)/n)
	}
	return reduce(vals), nil
}

// probeShuttle times one 64-item batch over a real loopback shuttle: the
// frame codec both ways and a pass-through bolt on the worker.
func probeShuttle(string) (probeStat, error) {
	co := worker.NewCoordinator(worker.CoordinatorConfig{Bind: func(string, int) (int, error) { return 1, nil }})
	defer co.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return probeStat{}, err
	}
	defer l.Close()
	go co.Serve(l)
	wk, err := worker.Dial(worker.Config{Addr: l.Addr().String(), Name: "probe", Build: func(int64) (map[string]engine.BoltFactory, error) {
		return map[string]engine.BoltFactory{"pass": func(int) engine.Bolt {
			return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error { emit(t.Values); return nil })
		}}, nil
	}})
	if err != nil {
		return probeStat{}, err
	}
	go wk.Run()
	defer wk.Close()
	if err := co.WaitWorkers(1, 5*time.Second); err != nil {
		return probeStat{}, err
	}
	sh := co.Shuttle(1)
	items := make([]engine.RemoteItem, 64)
	for i, rec := range probeRecords(len(items)) {
		items[i] = engine.RemoteItem{Task: i % 4, Values: engine.Values{rec}}
	}
	back := make(chan error, 1) // one batch in flight at a time
	var rttErr error
	st := timeOps(func(deadline time.Time) int {
		ops := 0
		for rttErr == nil && time.Now().Before(deadline) {
			rttErr = sh.ProcessBatch("pass", items, func(_ engine.RemoteResult, err error) { back <- err })
			if rttErr == nil {
				rttErr = <-back
			}
			ops++
		}
		return ops
	})
	return st, rttErr
}

// probeHop times the engine alone: a ring-fed spout and two pass-through
// bolts, per tuple per hop.
func probeHop(string) (probeStat, error) {
	ring := ingest.NewRing(1 << 14)
	pass := func(int) engine.Bolt {
		return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error { emit(t.Values); return nil })
	}
	end := func(int) engine.Bolt {
		return engine.BoltFunc(func(engine.Tuple, engine.Emit) error { return nil })
	}
	topo, err := engine.NewTopology().
		Spout("src", 1, func(int) engine.Spout { return &engine.NetworkSpout{Source: ring, MaxBatch: spoutMaxBatch} }).
		Bolt("a", 2, pass).Bolt("b", 2, end).
		Shuffle("src", "a").Shuffle("a", "b").Build()
	if err != nil {
		return probeStat{}, err
	}
	run, err := topo.Start(engine.RunConfig{Alloc: map[string]int{"a": 1, "b": 1}})
	if err != nil {
		return probeStat{}, err
	}
	defer run.Stop()
	defer ring.Close()
	v := engine.Values{probeRecords(1)[0]}
	var pushed int64
	return timeOps(func(deadline time.Time) int {
		ops := 0
		for time.Now().Before(deadline) {
			for i := 0; i < 256; i++ {
				if ring.TryPush(v) {
					pushed++
					ops += 2
				}
			}
			for n, _ := run.Completions(); pushed-n > 4096; n, _ = run.Completions() {
				time.Sleep(20 * time.Microsecond)
			}
		}
		for n, _ := run.Completions(); n < pushed; n, _ = run.Completions() {
			time.Sleep(20 * time.Microsecond)
		}
		return ops
	}), nil
}

// probeCore times Algorithm 1 and its Program (6) dual in Table II's
// regime: 64 operators with a split and a loop, Kmax 1024.
func probeCore(minProcessors bool) (probeStat, error) {
	const n, kmax = 64, 1024
	b := topology.NewBuilder()
	name := func(i int) string { return fmt.Sprintf("op%02d", i) }
	for i := 0; i < n; i++ {
		ext := 0.0
		if i == 0 {
			ext = 1000
		}
		b.AddOperator(name(i), 90+float64(i%7)*5, ext)
	}
	for i := 0; i+1 < n; i++ {
		switch i {
		case 10: // split: two branches that rejoin at op13
			b.Connect(name(10), name(11), 0.5).Connect(name(10), name(12), 0.5)
		case 11:
			b.Connect(name(11), name(13), 1)
		case 12:
			b.Connect(name(12), name(13), 1)
		default:
			b.Connect(name(i), name(i+1), 1)
		}
	}
	b.Connect(name(40), name(35), 0.2) // loop
	topo, err := b.Build()
	if err != nil {
		return probeStat{}, err
	}
	model, err := core.NewModelFromTopology(topo)
	if err != nil {
		return probeStat{}, err
	}
	k, err := model.AssignProcessors(kmax)
	if err != nil {
		return probeStat{}, err
	}
	tmax, err := model.ExpectedSojourn(k)
	if err != nil {
		return probeStat{}, err
	}
	var solveErr error
	st := timeOps(func(deadline time.Time) int {
		ops := 0
		for solveErr == nil && time.Now().Before(deadline) {
			if minProcessors {
				_, solveErr = model.MinProcessors(tmax * 1.05)
			} else {
				_, solveErr = model.AssignProcessors(kmax)
			}
			ops++
		}
		return ops
	})
	return st, solveErr
}

// probeArbitrate times one contended Resize among 16 tenants.
func probeArbitrate(string) (probeStat, error) {
	pool, err := cluster.NewPool(cluster.PoolConfig{SlotsPerMachine: 8, MaxMachines: 16}, 1)
	if err != nil {
		return probeStat{}, err
	}
	sched, err := cluster.NewScheduler(cluster.SchedulerConfig{Pool: pool})
	if err != nil {
		return probeStat{}, err
	}
	tenants := make([]*cluster.Tenant, 16)
	for i := range tenants {
		t, err := sched.Register(cluster.TenantConfig{
			Name: fmt.Sprintf("t%02d", i), Weight: float64(i%3 + 1), Priority: i % 2, MinSlots: 2,
		})
		if err != nil {
			return probeStat{}, err
		}
		t.Report(cluster.TenantReport{Lambda0: 10, Violating: i%2 == 1, GrowBenefit: float64(i), ShrinkCost: 0.5})
		tenants[i] = t
	}
	resize := func(t *cluster.Tenant, k int) error {
		if _, err := t.Resize(k); err != nil && !errors.Is(err, cluster.ErrNoCapacity) {
			return err
		}
		return nil
	}
	for _, t := range tenants { // oversubscribe: 16 x 12 over 128 slots
		if err := resize(t, 12); err != nil {
			return probeStat{}, err
		}
	}
	var resizeErr error
	i := 0
	st := timeOps(func(deadline time.Time) int {
		ops := 0
		for resizeErr == nil && time.Now().Before(deadline) {
			resizeErr = resize(tenants[i%len(tenants)], 12+i%2)
			i++
			ops++
		}
		return ops
	})
	return st, resizeErr
}

// fixedTarget is a supervised system that always reports the same
// interval: the tick probe times the loop, not a live engine.
type fixedTarget struct {
	alloc map[string]int
	rep   metrics.IntervalReport
}

func (t *fixedTarget) DrainInterval() metrics.IntervalReport             { return t.rep }
func (t *fixedTarget) Allocation() map[string]int                        { return t.alloc }
func (t *fixedTarget) Rebalance(a map[string]int, _ time.Duration) error { t.alloc = a; return nil }

func probeTick(string) (probeStat, error) {
	names := []string{"extract", "match", "agg"}
	busy := func(s float64) time.Duration { return time.Duration(130 * s * float64(time.Second)) }
	target := &fixedTarget{
		alloc: map[string]int{"extract": 10, "match": 11, "agg": 1},
		rep: metrics.IntervalReport{
			Duration: 10 * time.Second, ExternalArrivals: 130,
			Ops: []metrics.OpInterval{
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: busy(0.45)},
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: busy(0.50)},
				{Arrivals: 130, Served: 130, Sampled: 130, BusyTime: busy(0.01)},
			},
			SojournCount: 120, SojournTotal: 120 * time.Second,
		},
	}
	ctrl, err := core.NewController(core.ControllerConfig{Mode: core.ModeMinLatency, Kmax: 22, MinGain: 0.05})
	if err != nil {
		return probeStat{}, err
	}
	sup, err := loop.New(loop.Config{
		Target: target, Operators: names, Stepper: ctrl, Pool: loop.FixedPool(22),
		Interval: 10 * time.Second,
		Cooldown: time.Nanosecond, // decide every round: the full path
	})
	if err != nil {
		return probeStat{}, err
	}
	return timeOps(func(deadline time.Time) int {
		ops := 0
		for time.Now().Before(deadline) {
			sup.Tick()
			ops++
		}
		return ops
	}), nil
}

// probeSim reports simulator events (arrivals plus service completions)
// per wall second on the VLD pipeline — a rate, so higher is better.
func probeSim(string) (probeStat, error) {
	vals := make([]float64, 0, probeRepeats)
	for r := 0; r < probeRepeats; r++ {
		cfg, err := vld.SimConfig(vld.RecommendedAllocation(), uint64(r)+1)
		if err != nil {
			return probeStat{}, err
		}
		s, err := sim.New(cfg)
		if err != nil {
			return probeStat{}, err
		}
		start := time.Now()
		s.RunUntil(300)
		elapsed := time.Since(start).Seconds()
		rep := s.DrainInterval()
		events := rep.ExternalArrivals
		for _, op := range rep.Ops {
			events += op.Served
		}
		vals = append(vals, float64(events)/elapsed)
	}
	return reduce(vals), nil
}

// runBaseline is the single-goroutine reference: the three bolts' work on
// the same records, in one loop, with no gate and no engine.
func runBaseline(seed int64) map[string]float64 {
	maker := newRecordMaker(seed)
	recs := make([][]byte, 4096)
	for i := range recs {
		recs[i] = make([]byte, recordLen)
		maker.build(recs[i], uint64(phaseSat)<<phaseShift|uint64(i), int64(i))
	}
	var book bookSum
	st := timeOps(func(deadline time.Time) int {
		ops := 0
		for time.Now().Before(deadline) {
			for _, rec := range recs {
				seq, _ := hex16(rec[0:16])
				due, _ := hex16(rec[16:32])
				crc := crc32.Checksum(rec, castagnoli)
				_ = time.Now().UnixNano() - int64(due)
				book.add(seq, crc)
			}
			ops += len(recs)
		}
		return ops
	})
	if st.Median == 0 {
		return nil
	}
	fmt.Printf("    %-42s %14.1f [%.1f .. %.1f] rec/s (checksum %x)\n", "baseline.direct_rps", 1e9/st.Median, 1e9/st.Max, 1e9/st.Min, book.SumCRC)
	return map[string]float64{"baseline.direct_rps": 1e9 / st.Median}
}
