package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/wal"
)

// sutProc is the parent's handle on one SUT child.
type sutProc struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	ready  sutReady
	setupS float64 // spawn → ready
}

// startSUT spawns the child and waits for it to report ready.
func startSUT(cfg sutConfig) (*sutProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-role", "sut")
	cmd.Stderr = os.Stderr
	// The generator and the SUT share the machine's cores. One scheduler
	// thread for the SUT leaves a core to the generator and takes the
	// OS's placement of competing threads out of the numbers; the value
	// is written into every result file.
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+sutGOMAXPROCS)
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	outPipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &sutProc{cmd: cmd, in: in, out: bufio.NewReaderSize(outPipe, 1<<20)}
	if _, err := in.Write(append(line, '\n')); err != nil {
		p.kill()
		return nil, err
	}
	var msg struct {
		Ready *sutReady `json:"ready"`
	}
	if err := p.recv(&msg, readyTimeoutS*time.Second); err != nil || msg.Ready == nil {
		p.kill()
		return nil, fmt.Errorf("sut never became ready: %v", err)
	}
	p.setupS = time.Since(start).Seconds()
	p.ready = *msg.Ready
	return p, nil
}

func (p *sutProc) recv(into any, limit time.Duration) error {
	type result struct {
		line []byte
		err  error
	}
	ch := make(chan result, 1) // the reader must never block on a parent that gave up
	go func() {
		line, err := p.out.ReadBytes('\n')
		ch <- result{line, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			return r.err
		}
		return json.Unmarshal(r.line, into)
	case <-time.After(limit):
		return errors.New("timed out waiting for the SUT")
	}
}

func (p *sutProc) send(cmd map[string]any) error {
	line, err := json.Marshal(cmd)
	if err != nil {
		return err
	}
	_, err = p.in.Write(append(line, '\n'))
	return err
}

func (p *sutProc) snap() (sutSnap, error) {
	if err := p.send(map[string]any{"cmd": "snap"}); err != nil {
		return sutSnap{}, err
	}
	var msg struct {
		Snap sutSnap `json:"snap"`
	}
	err := p.recv(&msg, 10*time.Second)
	return msg.Snap, err
}

// stop asks for the drain and the report, then reaps the child.
func (p *sutProc) stop(admitted uint64) (sutReport, error) {
	var msg struct {
		Report *sutReport `json:"report"`
	}
	err := p.send(map[string]any{"cmd": "stop", "admitted": admitted})
	if err == nil {
		err = p.recv(&msg, 60*time.Second)
	}
	if err != nil || msg.Report == nil {
		p.kill()
		return sutReport{}, fmt.Errorf("sut stop: %v", err)
	}
	p.in.Close()
	if werr := p.cmd.Wait(); werr != nil {
		return *msg.Report, fmt.Errorf("sut exit: %w", werr)
	}
	return *msg.Report, nil
}

func (p *sutProc) kill() {
	p.in.Close()
	_ = p.cmd.Process.Kill()
	_ = p.cmd.Wait()
}

// preseedWAL writes the durable workload's backlog: n unacked records in
// a fresh log, exactly what a crashed predecessor would have left.
func preseedWAL(dir string, maker *recordMaker, n int) (bookSum, error) {
	var book bookSum
	if err := os.RemoveAll(dir); err != nil {
		return book, err
	}
	l, _, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		return book, err
	}
	due := time.Now().UnixNano()
	const chunk = 256
	for first := 0; first < n; first += chunk {
		k := min(chunk, n-first)
		recs := make([][]byte, k)
		for j := range recs {
			seq := uint64(phasePreseed)<<phaseShift | uint64(first+j)
			recs[j] = make([]byte, recordLen)
			maker.build(recs[j], seq, due)
			book.add(seq, crc32.Checksum(recs[j], castagnoli))
		}
		if err := l.AppendBatch(uint64(first+1), recs); err != nil {
			l.Close()
			return book, err
		}
	}
	return book, l.Close()
}

// bootSUT prepares a run directory — the shared completion counter and,
// on the durable workload, a freshly pre-seeded log — and boots a SUT on
// it. The caller unmaps the counter when it is done with the SUT.
func bootSUT(w workload, seed int64, dir string, traced bool, expectSamples int) (p *sutProc, counter *atomic.Uint64, unmap func(), preseed bookSum, err error) {
	counter, unmap, err = mapCounter(filepath.Join(dir, "counters"), true)
	if err != nil {
		return nil, nil, nil, preseed, err
	}
	cfg := sutConfig{Workload: w, Seed: seed, Traced: traced, Dir: dir, ExpectSamples: expectSamples}
	if w.Durable {
		cfg.WALDir = filepath.Join(dir, "wal")
		if preseed, err = preseedWAL(cfg.WALDir, newRecordMaker(seed), w.Preseed); err != nil {
			unmap()
			return nil, nil, nil, preseed, fmt.Errorf("pre-seeding the WAL: %w", err)
		}
	}
	if p, err = startSUT(cfg); err != nil {
		unmap()
		return nil, nil, nil, preseed, err
	}
	return p, counter, unmap, preseed, nil
}

// passResult is everything one boot-to-stop pass of one workload yields.
type passResult struct {
	w         workload
	traced    bool
	slow      bool // data-plane rate scaled by tracedRateShare
	setupS    float64
	ready     sutReady
	gen       *genStats
	preseed   bookSum
	report    sutReport
	rateStart sutSnap // around the open-loop (latency) phase
	rateEnd   sutSnap
	satStart  sutSnap // around the closed-loop phase (data plane only)
	satEnd    sutSnap
	satDone   uint64 // records completed inside the closed-loop phase
	rateS     float64
	arcStart  int64
}

// runPass boots a SUT, plays warm-up → open loop → (closed loop), drains
// and stops. rateS and satS are the measured phase lengths; satS is 0 on
// the traced pass and on drs-step.
func runPass(w workload, seed int64, dir string, traced, slow bool, rateS, satS float64) (*passResult, error) {
	res := &passResult{w: w, traced: traced, slow: slow, rateS: rateS}
	peak := max(w.RateRPS, w.SurgeRPS)
	p, counter, unmap, preseed, err := bootSUT(w, seed, dir, traced, int(peak*rateS*1.1)+4096)
	if err != nil {
		return nil, err
	}
	defer unmap()
	res.preseed = preseed
	res.setupS, res.ready = p.setupS, p.ready
	g, err := newGenerator(w, seed, p.ready, counter, int(res.preseed.Count))
	if err != nil {
		p.kill()
		return nil, err
	}
	fail := func(err error) (*passResult, error) {
		g.finish()
		p.kill()
		return nil, err
	}

	g.runOpen(phaseWarmup, []segment{w.baseSegment(w.warmupSeconds(), slow)})
	g.fl.waitDrained(2 * time.Second)

	if res.rateStart, err = p.snap(); err != nil {
		return fail(err)
	}
	res.arcStart, _ = g.runOpen(phaseRate, w.openSegments(rateS, slow))
	if res.rateEnd, err = p.snap(); err != nil {
		return fail(err)
	}
	g.fl.waitDrained(2 * time.Second)

	if satS > 0 {
		if res.satStart, err = p.snap(); err != nil {
			return fail(err)
		}
		before := counter.Load()
		g.runClosed(phaseSat, satS)
		res.satDone = counter.Load() - before
		if res.satEnd, err = p.snap(); err != nil {
			return fail(err)
		}
	}
	g.fl.waitDrained(drainSeconds * time.Second)
	res.gen = g.finish()
	res.report, err = p.stop(res.preseed.Count + res.gen.admitted())
	if err != nil {
		return nil, err
	}
	return res, nil
}

// check holds one pass to its books. Any violation fails the run: no
// metrics are reported from a pass whose books do not balance.
func (r *passResult) check() []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	g, rep, w := r.gen, &r.report, r.w
	if g.err != nil {
		fail("generator: %v", g.err)
	}
	if g.failed > 0 {
		fail("%d records failed in transport", g.failed)
	}
	for p := 0; p < phaseCount; p++ {
		want := g.acked[p]
		if p == phasePreseed {
			want = r.preseed
		}
		got := rep.Sink.Books[p]
		if g.inexact[p] {
			got, want = bookSum{Count: got.Count}, bookSum{Count: want.Count}
		}
		if got != want {
			fail("phase %d book: sink %+v, generator %+v (lost or duplicated records)", p, got, want)
		}
	}
	admitted := r.preseed.Count + g.admitted()
	if rep.DrainIncompleteN != 0 {
		fail("%d admitted records never completed", rep.DrainIncompleteN)
	}
	if uint64(rep.RootsCompleted) != admitted || rep.RootsStarted != rep.RootsCompleted {
		fail("engine roots started %d completed %d, admitted %d", rep.RootsStarted, rep.RootsCompleted, admitted)
	}
	if uint64(rep.Gate.Admitted) != g.admitted() {
		fail("gate admitted %d, generator saw %d acknowledged", rep.Gate.Admitted, g.admitted())
	}
	if rep.BoltErrors+rep.SpoutErrors != 0 {
		fail("%d bolt and %d spout errors", rep.BoltErrors, rep.SpoutErrors)
	}
	if rep.ExecFailures != 0 || rep.Replayed != 0 {
		fail("executor_failures %d, replayed %d (want 0, 0)", rep.ExecFailures, rep.Replayed)
	}
	if w.Durable {
		if rep.Sink.LastPreseedNS == 0 || rep.Sink.LastPreseedNS > rep.Sink.FirstFreshNS {
			fail("a fresh record completed before the replay finished")
		}
		if rep.WALWatermark != rep.WALTail || rep.WALTail != admitted {
			fail("wal watermark %d, tail %d, admitted %d", rep.WALWatermark, rep.WALTail, admitted)
		}
		if r.ready.Recovered != w.Preseed || int(rep.Gate.Replayed) != w.Preseed {
			fail("recovered %d, replayed %d of %d pre-seeded records", r.ready.Recovered, rep.Gate.Replayed, w.Preseed)
		}
	}
	if w.Remote {
		for i, name := range w.stages() {
			if rep.RemoteBound[name] != w.Alloc[i] {
				fail("bolt %s: %d executors remote-bound of %d", name, rep.RemoteBound[name], w.Alloc[i])
			}
		}
		if rep.WorkerDeaths != 0 || rep.WorkerJoins != remoteMachines {
			fail("worker joins %d deaths %d", rep.WorkerJoins, rep.WorkerDeaths)
		}
	}
	if w.Control {
		total := 0
		for _, k := range rep.Alloc {
			total += k
		}
		if total > rep.Granted || total > rep.SlotCap {
			fail("final allocation %d above grant %d or cap %d", total, rep.Granted, rep.SlotCap)
		}
	}
	if r.traced {
		if v := rep.Layers["obs.trace.telescope_err_ns"]; v != 0 {
			fail("tracer telescope error %v ns", v)
		}
		if rep.Layers["span.records"] == 0 {
			fail("the traced pass tiled no record")
		}
		if v := rep.Layers["span.sum_err_pct"]; math.Abs(v) > spanSumErrPct {
			fail("layer self times miss the sink's own mean latency by %.3f %% (%v records tiled, %v skipped)",
				v, rep.Layers["span.records"], rep.Layers["span.skipped"])
		}
		if v := rep.Layers["span.clamped_pct"]; v > spanClampedPct {
			fail("%.3f %% of the span boundaries were stamped out of path order", v)
		}
	}
	return bad
}

// latencyValues reduces a pass's open-loop latencies: each is the median
// over windows (by due-time) of the window's own statistic, so that a
// stall of the shared host moves the windows it hits and not the metric.
func (r *passResult) latencyValues() (p50, mean, p99, admitP99 float64) {
	var p50s, means, p99s []float64
	for _, win := range r.report.Sink.Windows {
		p50s, means = append(p50s, win.P50MS), append(means, win.MeanMS)
		if win.P99OK {
			p99s = append(p99s, win.P99MS)
		}
	}
	if len(p99s) == 0 {
		// Windows too thin to have ten samples beyond their p99 (drs-step):
		// the whole phase has them.
		p99s = []float64{r.report.Sink.Latency.P99MS}
	}
	return median(p50s), median(means), median(p99s), windowedP99(r.gen.admitNS, r.gen.admitDue, r.w.windowSeconds())
}

// endToEndValues reads the end-to-end metrics off an untraced pass, and
// beside them the closed-loop goodput and CPU per record that the traced
// run reports as per-layer metrics.
func (r *passResult) endToEndValues(setupS float64) map[string]float64 {
	g, rep, w := r.gen, &r.report, r.w
	m := map[string]float64{"setup_s": setupS}
	m["tmax_met_share"] = float64(rep.Sink.Within) / float64(g.offered[phaseRate])
	m["peak_rss_mb"] = float64(rep.Final.MaxRSSKB) / 1024

	first, last, done := r.satStart, r.satEnd, float64(r.satDone)
	if w.Control {
		first, last, done = r.rateStart, r.rateEnd, float64(rep.Sink.Books[phaseRate].Count)
	}
	wall := float64(last.AtNS-first.AtNS) / 1e9
	cpu := float64(last.CPUUserNS+last.CPUSysNS-first.CPUUserNS-first.CPUSysNS) / 1e3
	m["goodput_rps"] = done / wall
	m["cpu_us_per_rec"] = cpu / done
	m["allocs_per_rec"] = float64(last.Mallocs-first.Mallocs) / done
	slotFirst := r.rateStart
	m["mean_slots"] = (last.SlotSeconds - slotFirst.SlotSeconds) / (float64(last.AtNS-slotFirst.AtNS) / 1e9)
	return m
}

// layerValues reads the per-layer metrics off a traced pass. plain is the
// untraced half of the same run (for the tracing overhead); extra carries
// the probes and the baseline.
func (r *passResult) layerValues(plain *passResult, extra map[string]float64) map[string]float64 {
	g, rep, w := r.gen, &r.report, r.w
	m := map[string]float64{}
	for k, v := range rep.Layers {
		m[k] = v
	}
	for from, to := range map[string]string{
		"span." + layerGenSend + ".self_us":             "span.gen_send_self_us",
		"span." + ingestLayer(w.Transport) + ".self_us": "span.ingest_self_us",
		"span." + layerRing + ".self_us":                "span.ring_wait_self_us",
		"span." + layerSpout + ".self_us":               "span.spout_self_us",
		"span." + layerService + ".self_us":             "span.bolt_service_self_us",
		"span." + layerHop + ".self_us":                 "span.hop_self_us",
	} {
		m[to] = m[from]
	}
	m["ingest.registry.clients"] = float64(len(g.clientIDs))
	m["ingest.gate.offered"] = float64(rep.Gate.Offered)
	m["ingest.gate.admitted"] = float64(rep.Gate.Admitted)
	m["ingest.gate.shed_rate_limit"] = float64(rep.Gate.ShedRateLimit)
	m["ingest.gate.shed_overload"] = float64(rep.Gate.ShedOverload)
	m["ingest.gate.shed_backlog"] = float64(rep.Gate.ShedBacklog)
	m["wal.bytes_written"] = float64(rep.WALBytes)
	m["wal.segments"] = float64(rep.WALSegments)
	m["wal.recover_s"], m["wal.replay_s"] = r.ready.RecoverS, r.ready.ReplayS
	m["engine.roots_started"] = float64(rep.RootsStarted)
	m["engine.roots_completed"] = float64(rep.RootsCompleted)
	m["engine.executor_failures"] = float64(rep.ExecFailures)
	m["engine.replayed"] = float64(rep.Replayed)
	m["worker.batches"], m["worker.tuples"] = float64(rep.WorkerBatches), float64(rep.WorkerTuples)
	m["worker.joins"], m["worker.deaths"] = float64(rep.WorkerJoins), float64(rep.WorkerDeaths)
	m["loop.rounds"] = float64(rep.Rounds)
	for kind, n := range rep.Decisions {
		switch kind {
		case "rebalance":
			m["loop.decisions.rebalance"] += float64(n)
		case "scale-out":
			m["loop.decisions.scale_out"] += float64(n)
		case "scale-in":
			m["loop.decisions.scale_in"] += float64(n)
		default:
			m["loop.decisions.other"] += float64(n)
		}
	}
	m["cluster.machines_max"] = float64(rep.MachinesMax)
	m["sut.goroutines_max"] = float64(rep.GoroutinesMax)
	first, last := r.rateStart, r.rateEnd
	m["sut.gc_cycles"] = float64(last.GCCycles - first.GCCycles)
	m["sut.gc_pause_ms_total"] = float64(last.GCPauseNS-first.GCPauseNS) / 1e6
	m["sut.cpu_user_s"] = float64(last.CPUUserNS-first.CPUUserNS) / 1e9
	m["sut.cpu_sys_s"] = float64(last.CPUSysNS-first.CPUSysNS) / 1e9
	m["gen.lag_p99_ms"] = summarizeNS(append([]float64(nil), g.lagNS...)).P99MS
	if plain != nil {
		// The user-visible wall-clock figures come from the untraced half.
		m["sut.e2e_p50_ms"], m["sut.e2e_mean_ms"], m["sut.e2e_p99_ms"], m["gen.admit_p99_ms"] = plain.latencyValues()
		e2e := plain.endToEndValues(0)
		m["sut.goodput_rps"], m["sut.cpu_us_per_rec"] = e2e["goodput_rps"], e2e["cpu_us_per_rec"]
		cpuPer := func(p *passResult) float64 {
			a, b := p.rateStart, p.rateEnd
			return float64(b.CPUUserNS+b.CPUSysNS-a.CPUUserNS-a.CPUSysNS) / float64(p.report.Sink.Books[phaseRate].Count)
		}
		if base := cpuPer(plain); base > 0 {
			m["obs.trace.overhead_pct"] = (cpuPer(r) - base) / base * 100
		}
	}
	if w.Control {
		r.controlValues(m)
	}
	for k, v := range extra {
		m[k] = v
	}
	return m
}

// controlValues derives the loop's own figures from what the decorators
// noted: how long the surge took to re-converge, how far the measurer's
// rate and the model's sojourn sat from the truth, and how many slots the
// loop held against Program (6)'s answer at the true rates.
func (r *passResult) controlValues(m map[string]float64) {
	w, rep := r.w, &r.report
	segs := w.openSegments(r.rateS, r.slow)
	stepUp := r.arcStart + int64(segs[0].Seconds*1e9)
	surgeEnd := stepUp + int64(segs[1].Seconds*1e9)
	arcEnd := surgeEnd + int64(segs[2].Seconds*1e9)
	// The surge's final allocation is the one in force when it ends; the
	// loop re-converged when it last changed allocation before that.
	reconverge := 0.0
	for _, ch := range rep.AllocChanges {
		if ch.AtNS > stepUp && ch.AtNS <= surgeEnd {
			reconverge = float64(ch.AtNS-stepUp) / 1e9
		}
	}
	m["loop.reconverge_s"] = reconverge
	trueRate := func(at int64) float64 {
		if at >= stepUp && at < surgeEnd {
			return w.SurgeRPS
		}
		return w.RateRPS
	}
	var errSum, resSum float64
	var errN, resN int
	for _, note := range rep.RoundNotes {
		if note.AtNS < r.arcStart || note.AtNS > arcEnd {
			continue
		}
		errSum += math.Abs(note.Lambda0-trueRate(note.AtNS)) / trueRate(note.AtNS) * 100
		errN++
		if note.HasModel {
			resSum += note.ResidualMS
			resN++
		}
	}
	if errN > 0 {
		m["metrics.lambda_err_pct"] = errSum / float64(errN)
	}
	if resN > 0 {
		m["core.model_residual_ms"] = resSum / float64(resN)
	}
	need := func(rate float64) float64 {
		ops := make([]core.OpRates, stageCount)
		for i, name := range w.stages() {
			ops[i] = core.OpRates{Name: name, Lambda: rate, Mu: 1e3 / w.ServiceMeanMS[i]}
		}
		model, err := core.NewModel(rate, ops)
		if err != nil {
			return 0
		}
		k, err := model.MinProcessors(w.TmaxMS / 1e3)
		if err != nil {
			return 0
		}
		total := 0
		for _, n := range k {
			total += n
		}
		return float64(total)
	}
	weighted := (need(w.RateRPS)*(segs[0].Seconds+segs[2].Seconds) + need(w.SurgeRPS)*segs[1].Seconds) / r.rateS
	held := (r.rateEnd.SlotSeconds - r.rateStart.SlotSeconds) / (float64(r.rateEnd.AtNS-r.rateStart.AtNS) / 1e9)
	if weighted > 0 {
		m["core.slot_overprovision"] = held / weighted
	}
}

// windowedP99 is the median over windows (by due-time) of each window's
// p99 — the same reduction the sink applies to the end-to-end latency.
func windowedP99(ns []float64, dueNS []int64, windowS float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	first := dueNS[0]
	for _, d := range dueNS {
		first = min(first, d)
	}
	windows := map[int64][]float64{}
	for i, v := range ns {
		k := (dueNS[i] - first) / int64(windowS*1e9)
		windows[k] = append(windows[k], v)
	}
	p99s := make([]float64, 0, len(windows))
	for _, ws := range windows {
		p99s = append(p99s, summarizeNS(ws).P99MS)
	}
	return median(p99s)
}

// measureSetup boots the SUT n more times, one boot every setupBootEvery,
// and returns every spawn → ready time. The durable workload gets a fresh
// pre-seeded log per boot. The gap matters: boots run back to back are up
// to 1.5 × faster whenever the previous one has left the CPU warm, and
// whether it has changes from second to second, so a run of back-to-back
// boots reads one of two values; after an idle gap every boot starts cold,
// as a real one does.
func measureSetup(w workload, seed int64, dir string, n int) ([]float64, error) {
	var out []float64
	start := time.Now()
	for i := 0; i < n; i++ {
		sleepUntil(start.Add(time.Duration(i) * setupBootEvery).UnixNano())
		p, _, unmap, preseed, err := bootSUT(w, seed, dir, false, 4096)
		if err != nil {
			return nil, err
		}
		out = append(out, p.setupS)
		_, err = p.stop(preseed.Count)
		unmap()
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// outcome is one run of one workload in one mode.
type outcome struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Seed      int64              `json:"seed"`
	Seconds   int                `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	Table     []layerRow         `json:"layer_table,omitempty"`
}

// runWorkload is the one command: a full run of one workload in one
// mode, books checked.
func runWorkload(w workload, seed int64, seconds int, traced bool, root string) (*outcome, error) {
	dir, err := os.MkdirTemp(root, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	out := &outcome{Workload: w.Name, Traced: traced, Seed: seed, Seconds: seconds}
	book := func(r *passResult) {
		for p := range r.gen.offered {
			out.Attempted += r.gen.offered[p]
		}
		out.Failed += r.gen.failed + uint64(r.report.DrainIncompleteN)
		out.Problems = append(out.Problems, r.check()...)
	}
	if !traced {
		setups, err := measureSetup(w, seed, dir, setupBoots-1)
		if err != nil {
			return nil, err
		}
		rateS, satS := float64(seconds)/2, float64(seconds)/2
		if w.Control {
			rateS, satS = float64(seconds), 0
		}
		r, err := runPass(w, seed, dir, false, false, rateS, satS)
		if err != nil {
			return nil, err
		}
		book(r)
		setups = append(setups, r.setupS)
		out.Metrics = r.endToEndValues(median(setups))
		out.Notes = append(out.Notes, fmt.Sprintf("set-up, spawn to ready of each boot in ms: %.2f", scaled(setups, 1e3)))
		lag := summarizeNS(append([]float64(nil), r.gen.lagNS...))
		if lag.P99MS > 1 {
			out.Notes = append(out.Notes, fmt.Sprintf("INVALID (not slow): generator lag p99 %.3f ms is above 1 ms", lag.P99MS))
		}
		p50, mean, p99, admit := r.latencyValues()
		lat := r.report.Sink.Latency
		out.Notes = append(out.Notes,
			fmt.Sprintf("unbounded here (see --trace 1): goodput %.1f rec/s, cpu %.4f us/rec", out.Metrics["goodput_rps"], out.Metrics["cpu_us_per_rec"]),
			fmt.Sprintf("latency over %d windows of %g s (medians of the windows): p50 %.4f ms, mean %.4f ms, p99 %.4f ms, admit p99 %.4f ms",
				len(r.report.Sink.Windows), w.windowSeconds(), p50, mean, p99, admit),
			fmt.Sprintf("latency over the whole phase: %d samples, p50 %.4f ms, mean %.4f ms, p99 %.4f ms, max %.3f ms; generator lag p50 %.4f ms, p99 %.4f ms",
				lat.N, lat.P50MS, lat.MeanMS, lat.P99MS, lat.MaxMS, lag.P50MS, lag.P99MS))
		if shed := r.gen.shed[phaseRate]; shed > 0 {
			out.Notes = append(out.Notes, fmt.Sprintf("%d of %d offered records were refused (they count as missing the limit)", shed, r.gen.offered[phaseRate]))
		}
		if w.Control {
			line := "allocation over the arc:"
			for _, ch := range r.report.AllocChanges {
				line += fmt.Sprintf(" %+.1fs=%d", float64(ch.AtNS-r.arcStart)/1e9, ch.Total)
			}
			out.Notes = append(out.Notes, line, fmt.Sprintf("decisions %v", r.report.Decisions))
		}
	} else {
		half := float64(seconds) / 2
		satS := 2.0 // a short closed loop, for the overhead against the bare bolts
		if w.Control {
			satS = 0
		}
		plain, err := runPass(w, seed, dir, false, true, half, satS)
		if err != nil {
			return nil, err
		}
		book(plain)
		r, err := runPass(w, seed, dir, true, true, half, 0)
		if err != nil {
			return nil, err
		}
		book(r)
		extra := runProbes(dir)
		for k, v := range runBaseline(seed) {
			extra[k] = v
		}
		out.Metrics = r.layerValues(plain, extra)
		if goodput := out.Metrics["sut.goodput_rps"]; goodput > 0 {
			out.Metrics["baseline.overhead_x"] = out.Metrics["baseline.direct_rps"] / goodput
		}
		out.Table = r.report.LayerTable
		if r.report.SpanFile != "" {
			// The run directory goes away; the spans stay beside it.
			kept := filepath.Join(root, filepath.Base(r.report.SpanFile))
			if err := os.Rename(r.report.SpanFile, kept); err == nil {
				out.Notes = append(out.Notes, "spans (a sample of records, NDJSON): "+kept)
			}
		}
	}
	out.Correct = len(out.Problems) == 0 && out.Failed == 0
	if out.Attempted == 0 {
		out.Attempted = 1
	}
	return out, nil
}

// print writes the human-readable account, then the contract's one JSON
// line last.
func (o *outcome) print(w io.Writer) error {
	defs, mode := endToEnd, "end-to-end (decorators and 1000 permille tracing off)"
	if o.Traced {
		defs, mode = perLayer, "per-layer (traced pass)"
	}
	fmt.Fprintf(w, "workload %s  seed %d  seconds %d  %s\n", o.Workload, o.Seed, o.Seconds, mode)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-42s %16.4f %s\n", d.Name, o.Metrics[d.Name], d.Unit)
	}
	if len(o.Table) > 0 {
		fmt.Fprintf(w, "  layer table (self-time means over %.0f records, root mean %.2f us; against the sink's own mean latency they are off by %+.4f %%, %.4f %% of the boundaries out of order)\n",
			o.Metrics["span.records"], o.Metrics["span.e2e_mean_us"], o.Metrics["span.sum_err_pct"], o.Metrics["span.clamped_pct"])
		for _, row := range o.Table {
			fmt.Fprintf(w, "    %-20s %12.2f us %6.1f %%\n", row.Layer, row.SelfMeanUS, row.Share*100)
		}
		fmt.Fprintf(w, "  shipping tracer telescope: gate %.2f + wal %.2f | queue %.2f + service %.2f + shuttle %.2f us; error %v ns\n",
			o.Metrics["obs.trace.gate_us"], o.Metrics["obs.trace.wal_us"], o.Metrics["obs.trace.queue_us"],
			o.Metrics["obs.trace.service_us"], o.Metrics["obs.trace.shuttle_us"], o.Metrics["obs.trace.telescope_err_ns"])
	}
	for _, n := range o.Notes {
		fmt.Fprintln(w, "  note:", n)
	}
	for _, p := range o.Problems {
		fmt.Fprintln(w, "  BROKEN BOOK:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted uint64           `json:"attempted"`
		Failed    uint64           `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{o.Correct, o.Attempted, o.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.Name] = value{o.Metrics[d.Name], d.Unit}
	}
	return json.NewEncoder(w).Encode(line)
}
