package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// span is one interval of one record's life in the traced pass. Parent
// indexes the span that caused it within the same record (-1 for the
// root); spans of one record share Seq.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Seq    uint64 `json:"seq"`
}

// selfTimes returns, per span, its duration minus the part of it that
// its direct children cover (children clipped to the parent, overlaps
// among siblings counted once).
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	type iv struct{ a, b int64 }
	var kids []iv
	for i, p := range spans {
		kids = kids[:0]
		for _, c := range spans {
			if c.Parent != i {
				continue
			}
			a, b := max(c.Start, p.Start), min(c.End, p.End)
			if b > a {
				kids = append(kids, iv{a, b})
			}
		}
		sort.Slice(kids, func(x, y int) bool { return kids[x].a < kids[y].a })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			if k.b <= edge {
				continue
			}
			covered += k.b - max(k.a, edge)
			edge = k.b
		}
		out[i] = (p.End - p.Start) - covered
	}
	return out
}

// What the traced pass's books tolerate: the layers' self-time means may
// miss the sink's own mean latency by spanSumErrPct percent, and
// spanClampedPct percent of the boundaries may be stamped out of order.
const (
	spanSumErrPct  = 1.0
	spanClampedPct = 0.1
)

// Layer names of the tiling, in path order.
const (
	layerRecord  = "record" // root: due-time → sink exit
	layerGenSend = "gen.send"
	layerRing    = "ingest.ring.wait"
	layerSpout   = "engine.spout"
	layerService = "bolt.service"
	layerHop     = "engine.hop"
)

func ingestLayer(transport string) string {
	if transport == "tcp" {
		return "ingest.tcp"
	}
	return "ingest.http"
}

// recordSpans tiles one record's due-time → sink exit with the stamps the
// decorators and bolts took: gen.send (due → the front door has the whole
// request), ingest.http|tcp (→ answered, or taken by the spout if that
// came first), ingest.ring.wait (→ popped), engine.spout (→ first bolt
// entry), then service and hop alternating to the sink's exit. The root
// runs from the due-time to the sink's own exit stamp, the one the
// recorder books the latency with, so the children tile it only if every
// stamp is in path order. A stamp that lies before its predecessor is
// moved up to it and counted in clamped: the tiling then overshoots the
// root, and the layer table's sum check shows it. ok is false when a stamp
// is missing.
func recordSpans(buf []span, seq uint64, st *stamps, stages [stageCount]string, ingest string) (spans []span, clamped int, ok bool) {
	if st.arrive == 0 || st.handled == 0 || st.pop == 0 {
		return buf[:0], 0, false
	}
	for i := 0; i < stageCount; i++ {
		if st.entry[i] == 0 || st.exit[i] == 0 {
			return buf[:0], 0, false
		}
	}
	buf = append(buf[:0], span{Name: layerRecord, Start: st.due, End: st.exit[stageCount-1], Parent: -1, Seq: seq})
	edge := st.due
	add := func(name string, to int64) {
		if to < edge {
			to = edge
			clamped++
		}
		buf = append(buf, span{Name: name, Start: edge, End: to, Parent: 0, Seq: seq})
		edge = to
	}
	add(layerGenSend, st.arrive)
	add(ingest, min(st.handled, st.pop))
	add(layerRing, st.pop)
	add(layerSpout, st.entry[0])
	for i := 0; i < stageCount; i++ {
		add("bolt."+stages[i]+".service", st.exit[i])
		if i+1 < stageCount {
			add(layerHop, st.entry[i+1])
		}
	}
	return buf, clamped, true
}

// layerRow is one line of the layer table.
type layerRow struct {
	Layer      string  `json:"layer"`
	SelfMeanUS float64 `json:"self_mean_us"`
	Share      float64 `json:"share"`
}

// spanFold accumulates the tiling over every rate-phase record.
type spanFold struct {
	n        int
	skipped  int // records the sink saw that lack a stamp
	edges    int // boundaries tiled
	clamped  int // of them, out of path order
	selfSum  map[string]float64
	e2eSum   float64
	ringWait []float64
	spout    []float64
	hop      []float64
}

// foldSpans walks the stamp table, tiles each complete record, sums self
// times per layer and writes a sample of the spans as NDJSON (at most
// about 2000 records' worth, evenly spaced).
func foldSpans(t *stampTable, stages [stageCount]string, ingest, path string) (spanFold, error) {
	f := spanFold{selfSum: map[string]float64{}}
	file, err := os.Create(path)
	if err != nil {
		return f, err
	}
	defer file.Close()
	bw := bufio.NewWriter(file)
	enc := json.NewEncoder(bw)
	every := len(t.recs)/2000 + 1
	var buf []span
	for i := range t.recs {
		st := &t.recs[i]
		seq := uint64(phaseRate)<<phaseShift | uint64(i)
		if st.due == 0 {
			continue // never reached the sink (or beyond the table)
		}
		var clamped int
		var ok bool
		buf, clamped, ok = recordSpans(buf, seq, st, stages, ingest)
		if !ok {
			f.skipped++
			continue
		}
		f.n++
		f.edges += len(buf) - 1
		f.clamped += clamped
		f.e2eSum += float64(buf[0].End - buf[0].Start)
		for j, self := range selfTimes(buf) {
			name := buf[j].Name
			if strings.HasPrefix(name, "bolt.") {
				name = layerService // the three stages fold into one row
			}
			f.selfSum[name] += float64(self)
			d := float64(buf[j].End - buf[j].Start)
			switch buf[j].Name {
			case layerRing:
				f.ringWait = append(f.ringWait, d)
			case layerSpout:
				f.spout = append(f.spout, d)
			case layerHop:
				f.hop = append(f.hop, d)
			}
		}
		if i%every == 0 {
			for _, sp := range buf {
				if err := enc.Encode(sp); err != nil {
					return f, err
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return f, err
	}
	return f, file.Sync()
}

// table renders the fold as the layer table. sumErrPct holds the layers'
// self-time means against sinkMeanUS, the mean latency the sink's recorder
// booked for the same phase on its own path: it is off when stamps were
// out of order (the tiling overshoots its root) and when records are
// missing from the fold.
func (f spanFold) table(ingest string, sinkMeanUS float64) (rows []layerRow, e2eMeanUS, sumErrPct float64) {
	if f.n == 0 {
		return nil, 0, -100
	}
	e2eMeanUS = f.e2eSum / float64(f.n) / 1e3
	sum := 0.0
	for _, name := range []string{layerRecord, layerGenSend, ingest, layerRing, layerSpout, layerService, layerHop} {
		self := f.selfSum[name] / float64(f.n) / 1e3
		sum += self
		rows = append(rows, layerRow{Layer: name, SelfMeanUS: self, Share: self / e2eMeanUS})
	}
	if sinkMeanUS > 0 {
		sumErrPct = (sum - sinkMeanUS) / sinkMeanUS * 100
	}
	return rows, e2eMeanUS, sumErrPct
}

// foldLayers fills the per-layer readings that need the live stack.
func (s *sut) foldLayers(rep *sutReport) {
	L := map[string]float64{}
	rep.Layers = L
	_ = s.run.DrainInterval() // folds the probes into BoltTotals
	skewMax := 0.0
	for i, name := range s.w.stages() {
		arr, served, _ := s.run.BoltTotals(name)
		L[fmt.Sprintf("engine.bolt.%d.arrivals", i+1)] = float64(arr)
		L[fmt.Sprintf("engine.bolt.%d.served", i+1)] = float64(served)
		if skew, err := s.run.LoadSkew(name); err == nil && skew > skewMax {
			skewMax = skew
		}
	}
	L["engine.load_skew_max"] = skewMax
	putSummary(L, "ingest.http.handle", s.httpHandle.summary())
	putSummary(L, "ingest.tcp.handle", s.tcpHandle.summary())
	if p := s.source; p != nil {
		if pops := p.pops.Load(); pops > 0 {
			L["ingest.ring.batch_mean"] = float64(p.popped.Load()) / float64(pops)
		}
		L["ingest.ring.depth_max"] = float64(p.depth.Load())
		putSummary(L, "engine.ack", p.ackWait.summary())
	}
	putSummary(L, "worker.shuttle_rtt", s.shuttleRTT.summary())
	var batches, items int64
	for _, r := range s.remotes {
		batches += r.batches.Load()
		items += r.items.Load()
	}
	if batches > 0 {
		L["worker.batch_mean"] = float64(items) / float64(batches)
	}
	if s.wire != nil && items > 0 {
		L["worker.wire_bytes_per_tuple"] = float64(s.wire.bytes.Load()) / float64(items)
	}
	putSummary(L, "core.step", s.stepNS.summary())
	putSummary(L, "cluster.resize", s.resizeNS.summary())
	if s.target != nil {
		s.target.mu.Lock()
		L["engine.rebalances"] = float64(s.target.count)
		L["engine.rebalance_pause_ms_total"] = float64(s.target.pauseNS) / 1e6
		s.target.mu.Unlock()
	}
	if s.stepper != nil {
		s.stepper.mu.Lock()
		rep.RoundNotes = append([]roundNote(nil), s.stepper.rounds...)
		s.stepper.mu.Unlock()
	}
}

// foldTraces runs after shutdown: the tracer is closed, so the assembler
// has finalized every trace and the stamp table is quiescent.
func (s *sut) foldTraces(rep *sutReport) {
	L := rep.Layers
	ts, ds := s.tracer.Stats(), s.dlog.Stats()
	as := s.tracer.Assembler().Stats()
	L["obs.trace.spans"] = float64(ts.Spans)
	L["obs.trace.dropped"] = float64(ts.Dropped)
	L["obs.trace.completed"] = float64(as.Completed)
	L["obs.trace.lost"] = float64(as.Lost)
	L["obs.decision.offered"] = float64(ds.Offered)
	L["obs.decision.dropped"] = float64(ds.Dropped)
	f := &s.traces
	f.mu.Lock()
	if f.n > 0 {
		n := float64(f.n)
		L["obs.trace.gate_us"] = f.gate / n / 1e3
		L["obs.trace.wal_us"] = f.walNS / n / 1e3
		L["obs.trace.queue_us"] = f.queue / n / 1e3
		L["obs.trace.service_us"] = f.service / n / 1e3
		L["obs.trace.shuttle_us"] = f.shuttle / n / 1e3
	}
	L["obs.trace.telescope_err_ns"] = float64(f.telescopeErr)
	putSummary(L, "wal.span", summarizeNS(f.walSamples))
	f.mu.Unlock()

	path := s.cfg.Dir + "/spans-" + s.w.Name + ".ndjson"
	ing := ingestLayer(s.w.Transport)
	fold, err := foldSpans(s.table, s.w.stages(), ing, path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sut: span fold:", err)
		return
	}
	rep.SpanFile = path
	rows, e2eMeanUS, sumErr := fold.table(ing, rep.Sink.Latency.MeanMS*1e3)
	rep.LayerTable = rows
	for _, row := range rows {
		L["span."+row.Layer+".self_us"] = row.SelfMeanUS
	}
	L["span.e2e_mean_us"] = e2eMeanUS
	L["span.sum_err_pct"] = sumErr
	L["span.records"] = float64(fold.n)
	L["span.skipped"] = float64(fold.skipped)
	if fold.edges > 0 {
		L["span.clamped_pct"] = float64(fold.clamped) / float64(fold.edges) * 100
	}
	putSummary(L, "ingest.ring.wait", summarizeNS(fold.ringWait))
	putSummary(L, "engine.spout", summarizeNS(fold.spout))
	putSummary(L, "engine.hop", summarizeNS(fold.hop))
}

func putSummary(L map[string]float64, prefix string, s latencySummary) {
	if s.N == 0 {
		return
	}
	L[prefix+"_p50_us"] = s.P50MS * 1e3
	L[prefix+"_p99_us"] = s.P99MS * 1e3
}
