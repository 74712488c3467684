package main

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/drs-repro/drs/internal/engine"
)

// The benchmark owns the three bolts of every workload so that the last
// one can stamp each record's completion: parse hex-decodes the header,
// enrich takes the CRC-32C, sink books the latency and folds the
// checksum. They are near free on the data-plane workloads — the
// framework is what is timed — and sleep a seeded exponential service
// time on drs-step.
//
// Tuple layout: [0] the record bytes, [1] its CRC (from enrich on),
// [2..] entry/exit wall stamps per stage (traced pass only).

var errBadRecord = errors.New("benchmark: malformed record")

// recorder is the sink's book: per-phase checksums, and for the measured
// open-loop phase one latency sample per record. Sharded by task so the
// sink's executors rarely meet on a lock.
type recorder struct {
	shards  [16]recorderShard
	limitNS int64
	epochNS int64
	// completed is shared with the generator through a mapped file: the
	// closed-loop window is sent minus this.
	completed *atomic.Uint64
}

type recorderShard struct {
	mu      sync.Mutex
	books   [phaseCount]bookSum
	within  uint64   // rate-phase completions inside the limit
	samples []uint64 // rate phase: due offset in ms <<40 | latency in ns
	// Completion order across the replay boundary (durable workload).
	lastPreseedNS, firstFreshNS int64
	_                           [64]byte
}

const sampleLatBits = 40

func newRecorder(limitNS int64, expectSamples int, completed *atomic.Uint64) *recorder {
	r := &recorder{limitNS: limitNS, epochNS: time.Now().UnixNano(), completed: completed}
	for i := range r.shards {
		r.shards[i].samples = make([]uint64, 0, expectSamples/len(r.shards)+1024)
	}
	return r
}

func (r *recorder) record(task int, seq uint64, dueNS int64, crc uint32, nowNS int64) {
	phase := seq >> phaseShift
	if phase >= phaseCount {
		phase = phaseWarmup
	}
	s := &r.shards[task%len(r.shards)]
	s.mu.Lock()
	s.books[phase].add(seq, crc)
	switch phase {
	case phasePreseed:
		if nowNS > s.lastPreseedNS {
			s.lastPreseedNS = nowNS
		}
	case phaseRate:
		lat := nowNS - dueNS
		if lat < 0 {
			lat = 0
		}
		if lat <= r.limitNS {
			s.within++
		}
		if lat >= 1<<sampleLatBits {
			lat = 1<<sampleLatBits - 1
		}
		offMS := (dueNS - r.epochNS) / 1e6
		if offMS < 0 {
			offMS = 0
		}
		s.samples = append(s.samples, uint64(offMS)<<sampleLatBits|uint64(lat))
		fallthrough
	default:
		if s.firstFreshNS == 0 || nowNS < s.firstFreshNS {
			s.firstFreshNS = nowNS
		}
	}
	s.mu.Unlock()
	r.completed.Add(1)
}

// sinkReport is the recorder folded for the final report.
type sinkReport struct {
	Books         [phaseCount]bookSum `json:"books"`
	Within        uint64              `json:"within"`
	Latency       latencySummary      `json:"latency"`
	Windows       []windowStat        `json:"windows"`
	LastPreseedNS int64               `json:"last_preseed_ns"`
	FirstFreshNS  int64               `json:"first_fresh_ns"`
}

// windowStat is the latency of the records due inside one window of the
// measured open-loop phase.
type windowStat struct {
	OffsetS float64 `json:"offset_s"` // window start, from the first due-time
	latencySummary
}

func (r *recorder) report(windowS float64) sinkReport {
	var out sinkReport
	var all []uint64
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for p := range s.books {
			out.Books[p].merge(s.books[p])
		}
		out.Within += s.within
		all = append(all, s.samples...)
		if s.lastPreseedNS > out.LastPreseedNS {
			out.LastPreseedNS = s.lastPreseedNS
		}
		if s.firstFreshNS != 0 && (out.FirstFreshNS == 0 || s.firstFreshNS < out.FirstFreshNS) {
			out.FirstFreshNS = s.firstFreshNS
		}
		s.mu.Unlock()
	}
	if len(all) == 0 {
		return out
	}
	minOff := all[0] >> sampleLatBits
	for _, v := range all {
		if off := v >> sampleLatBits; off < minOff {
			minOff = off
		}
	}
	lats := make([]float64, len(all))
	windows := map[uint64][]float64{}
	for i, v := range all {
		lat := float64(v & (1<<sampleLatBits - 1))
		lats[i] = lat
		w := ((v >> sampleLatBits) - minOff) / uint64(windowS*1000)
		windows[w] = append(windows[w], lat)
	}
	out.Latency = summarizeNS(lats)
	for w, ws := range windows {
		out.Windows = append(out.Windows, windowStat{OffsetS: float64(w) * windowS, latencySummary: summarizeNS(ws)})
	}
	sort.Slice(out.Windows, func(i, j int) bool { return out.Windows[i].OffsetS < out.Windows[j].OffsetS })
	return out
}

// stamps are one record's layer boundaries in the traced pass, all on the
// SUT's wall clock. Distinct goroutines write distinct fields; they are
// read only after the run has drained.
type stamps struct {
	due     int64 // from the record, noted by the sink
	arrive  int64 // front door saw the whole request / frame
	handled int64 // front door answered
	pop     int64 // spout took it off the ring
	entry   [stageCount]int64
	exit    [stageCount]int64
}

// stampTable holds the traced pass's stamps, indexed by the rate-phase
// record counter.
type stampTable struct {
	recs []stamps
}

func (t *stampTable) at(seq uint64) *stamps {
	if t == nil || seq>>phaseShift != phaseRate {
		return nil
	}
	i := seq & counterMask
	if i >= uint64(len(t.recs)) {
		return nil
	}
	return &t.recs[i]
}

// stageSet builds the bolt factories for one workload — in the SUT's
// engine and, through worker.Config.Build, in its in-process workers.
type stageSet struct {
	w      workload
	seed   int64
	rec    *recorder
	traced *stampTable // nil on the untraced pass
}

func (s *stageSet) factories() map[string]engine.BoltFactory {
	names := s.w.stages()
	out := make(map[string]engine.BoltFactory, stageCount)
	for i := range names {
		stage := i
		out[names[i]] = func(task int) engine.Bolt { return s.bolt(stage, task) }
	}
	return out
}

func (s *stageSet) bolt(stage, task int) engine.Bolt {
	var rng *rand.Rand
	meanNS := s.w.ServiceMeanMS[stage] * 1e6
	if s.w.Control {
		rng = rand.New(rand.NewSource(s.seed ^ int64(stage+1)<<32 ^ int64(task+1)<<8))
	}
	traced := s.traced != nil
	return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error {
		var entry int64
		if traced {
			entry = time.Now().UnixNano()
		}
		rec, ok := t.Values[0].([]byte)
		if !ok || len(rec) != recordLen {
			return errBadRecord
		}
		seq, ok1 := hex16(rec[0:16])
		due, ok2 := hex16(rec[16:32])
		if !ok1 || !ok2 {
			return errBadRecord
		}
		if rng != nil {
			time.Sleep(time.Duration(expDuration(rng, meanNS)))
		}
		out := t.Values
		switch stage {
		case 0:
			if traced {
				out = engine.Values{rec, int64(0)}
			}
		case 1:
			crc := int64(crc32.Checksum(rec, castagnoli))
			if traced {
				out = append(engine.Values{rec, crc}, t.Values[2:]...)
			} else {
				out = engine.Values{rec, crc}
			}
		case 2:
			crc, ok := t.Values[1].(int64)
			if !ok {
				return errBadRecord
			}
			now := time.Now().UnixNano()
			s.rec.record(task, seq, int64(due), uint32(crc), now)
			if st := s.traced.at(seq); st != nil {
				for i := 0; i < stage; i++ {
					st.entry[i], _ = t.Values[2+2*i].(int64)
					st.exit[i], _ = t.Values[3+2*i].(int64)
				}
				st.due, st.entry[stage], st.exit[stage] = int64(due), entry, now
			}
			return nil
		}
		if traced {
			// The exit stamp is read before the emit: the emit and the
			// enqueue behind it belong to the hop, not to the service.
			out = append(out, entry, time.Now().UnixNano())
		}
		emit(out)
		return nil
	})
}
