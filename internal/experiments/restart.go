package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/ingest"
	"github.com/drs-repro/drs/internal/scenario"
	"github.com/drs-repro/drs/internal/wal"
)

// The restart experiment: the durability tentpole's golden arc. Unlike
// the simulator-substrate experiments it drives the REAL durable ingest
// stack — a wal.Log on disk, an ingest.Gate in durable mode and the
// acked DurableSource — in deterministic virtual time: one tick per
// scenario second, an arrival count derived from the scenario envelope
// by fractional accumulation (no RNG), and a fixed drain capacity per
// tick standing in for the engine. The scenario's scripted machine kill
// is repurposed as process death: at the kill the node is dropped
// without a final sync — its ring backlog and every record ACKed past
// the last durable watermark die with it — and a partial frame is left
// on the segment tail (the mid-write(2) kill -9 artifact). The restart
// boots a second life over the same directory: recovery truncates the
// torn tail, replays everything past the durable watermark, and the arc
// finishes the surge. The audit the golden file locks: zero admitted
// records lost across lives, duplicates exactly equal to the
// acked-after-last-sync window, the final watermark equal to the pushed
// seq space, and a third boot with nothing left to replay.
const (
	// restartCapacity is the records drained per tick — the stand-in
	// engine's service rate (below the surge's offered rate, so a ring
	// backlog builds toward the kill).
	restartCapacity = 8
	// restartSyncEvery is the ticks between durable watermark syncs; the
	// records acked since the last sync are the at-least-once window.
	restartSyncEvery = 10
	// restartSegBytes keeps segments small so the arc exercises rotation
	// and watermark-driven pruning.
	restartSegBytes = 4096
)

// restartTorn is the partial frame appended after the kill: a header
// promising a 40-byte payload followed by only 5 bytes of it — what a
// kill -9 mid-write(2) leaves on the tail for recovery to truncate.
var restartTorn = []byte{0, 0, 0, 40, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5}

// RestartLife summarizes one process life of the arc.
type RestartLife struct {
	// From and Until bound the life in scenario seconds.
	From, Until float64
	// Offered, Admitted and Shed are the life's gate books.
	Offered, Admitted, Shed int64
	// Processed counts records popped and ACKed by the drain (occurrences,
	// so life 2's count includes replayed duplicates).
	Processed int64
	// WatermarkMemory is the completion tracker's watermark at life end;
	// WatermarkDurable the last watermark actually synced to the log. The
	// gap is the at-least-once window the kill exposes.
	WatermarkMemory, WatermarkDurable uint64
	// TailSeq and Segments describe the log at life end.
	TailSeq  uint64
	Segments int
	// RingBacklog is the admitted-but-unprocessed count at life end (the
	// records a kill abandons in memory and recovery must resurrect).
	RingBacklog int
}

// RestartResult carries the full kill -9/restart arc.
type RestartResult struct {
	// Scenario is the (possibly scaled) spec the run replayed.
	Scenario scenario.Spec
	// KillAt and RestartAt are the process-death window bounds in
	// scenario seconds.
	KillAt, RestartAt float64
	// Timeline logs every scenario event.
	Timeline []string
	// Life1 and Life2 are the two process lives.
	Life1, Life2 RestartLife
	// RefusedDown counts arrivals while the process was dead (a dead
	// front door refuses — it never silently loses).
	RefusedDown int64
	// TornBytes is the injected partial-frame length.
	TornBytes int
	// Recovery is the second boot's WAL scan summary.
	Recovery wal.Recovered
	// Replayed counts records re-injected on the second boot;
	// ExpectedDuplicates of them were already processed (acked after the
	// last durable sync) and will be seen twice.
	Replayed, ExpectedDuplicates int
	// DrainTicks counts extra ticks past the horizon needed to empty the
	// ring at the end.
	DrainTicks int
	// UniqueAdmitted, Duplicates and Lost audit the at-least-once
	// contract across lives: every admitted record must be processed at
	// least once (Lost == 0), and Duplicates is the total re-processing.
	UniqueAdmitted, Duplicates, Lost int64
	// FinalWatermark and FinalPushed must agree: every pushed seq
	// completed.
	FinalWatermark, FinalPushed uint64
	// FinalSegments counts live segments after the last sync + prune.
	FinalSegments int
	// VerifyWatermark and VerifyUnacked are the third boot's findings — a
	// clean restart replays nothing.
	VerifyWatermark uint64
	VerifyUnacked   int
	// BooksAgree reports the cross-life ledger check: per-life gate
	// admissions sum to the unique admitted count, nothing was lost, and
	// the final watermark covers the whole seq space.
	BooksAgree bool
}

// restartNode bundles one process life of the durable stack.
type restartNode struct {
	log  *wal.Log
	gate *ingest.Gate
	cl   *ingest.Client
	src  *ingest.DurableSource
	// processed counts this life's pops; never is the pop-side idle
	// channel (the driver only pops what Len reports, so it never blocks).
	processed int64
	never     chan struct{}
}

// bootRestartNode opens (or recovers) the log in dir and builds the
// durable gate over it.
func bootRestartNode(dir string) (*restartNode, wal.Recovered, error) {
	l, rec, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: restartSegBytes, SyncEvery: -1})
	if err != nil {
		return nil, rec, err
	}
	g := ingest.NewGate(ingest.GateConfig{}) // the default ring holds the surge backlog
	if err := g.AttachWAL(l); err != nil {
		l.Close()
		return nil, rec, err
	}
	src, ok := g.Source().(*ingest.DurableSource)
	if !ok {
		l.Close()
		return nil, rec, fmt.Errorf("experiments: durable gate returned a non-acked source")
	}
	return &restartNode{
		log: l, gate: g, cl: g.Client("ingest", 1, 0, 0),
		src: src, never: make(chan struct{}),
	}, rec, nil
}

// consume drains up to capacity records from the ring, acking each batch
// and counting payload occurrences into seen.
func (n *restartNode) consume(capacity int, seen map[string]int) {
	for capacity > 0 {
		avail := n.gate.Ring().Len()
		if avail == 0 {
			return
		}
		got := n.process(min(capacity, avail), n.never, seen)
		if got == 0 {
			return
		}
		capacity -= got
	}
}

// process pops up to limit records (blocking until there are some, or until
// done closes), counts their payloads into seen and acks them. It returns
// how many it popped.
func (n *restartNode) process(limit int, done <-chan struct{}, seen map[string]int) int {
	batch, ack, ok := n.src.PopBatchAcked(done, make([]engine.Values, 0, limit))
	if !ok {
		return 0
	}
	for _, v := range batch {
		seen[string(v[0].([]byte))]++
	}
	ack()
	n.processed += int64(len(batch))
	return len(batch)
}

// replay re-injects the recovered records. A replay never grows the ring
// and this stand-in engine drains only on ticks, so the unacked records
// beyond the ring's storage are processed as they land, oldest first; a
// replay that fits is left to the ticks.
func (n *restartNode) replay(unacked int, seen map[string]int) (int, error) {
	var (
		replayed int
		err      error
	)
	returned := make(chan struct{})
	go func() {
		defer close(returned)
		replayed, err = n.gate.Replay()
	}()
	_, room, _ := n.gate.Ring().Slots()
	for over := unacked - room; over > 0; {
		got := n.process(over, returned, seen)
		if got == 0 {
			break
		}
		over -= got
	}
	<-returned
	return replayed, err
}

// life summarizes the node's current books as a RestartLife (From/Until
// filled by the caller).
func (n *restartNode) life(durable uint64) RestartLife {
	st := n.gate.Stats()
	return RestartLife{
		Offered: st.Offered, Admitted: st.Admitted,
		Shed:            st.ShedRateLimit + st.ShedOverload + st.ShedBacklog,
		Processed:       n.processed,
		WatermarkMemory: n.gate.Watermark(), WatermarkDurable: durable,
		TailSeq: n.log.TailSeq(), Segments: n.log.Segments(),
		RingBacklog: n.gate.Ring().Len(),
	}
}

// tearTail appends the partial frame to the newest segment in dir.
func tearTail(dir string) error {
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		return fmt.Errorf("experiments: no segment to tear: %v", err)
	}
	sort.Strings(segs)
	f, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	if _, err := f.Write(restartTorn); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunRestart replays the canonical kill -9 scenario (scenario.Restart):
// the five-minute arc the golden file locks.
func RunRestart(o Options) (RestartResult, error) {
	return RunRestartSpec(scenario.Restart(), o)
}

// RunRestartSpec replays an arbitrary scenario spec as a kill -9 arc:
// the first scripted kill is the process death, its recovery the
// restart. A positive Options.Duration scales the spec to that horizon.
func RunRestartSpec(spec scenario.Spec, o Options) (RestartResult, error) {
	spec = spec.Scaled(o.scale(spec.DurationSeconds))
	tl, err := scenario.Compile(spec)
	if err != nil {
		return RestartResult{}, err
	}
	if len(spec.Tenants) != 1 || len(spec.Churn.Kills) != 1 {
		return RestartResult{}, fmt.Errorf("experiments: restart wants one tenant and one scripted kill, got %d/%d",
			len(spec.Tenants), len(spec.Churn.Kills))
	}
	tenant := spec.Tenants[0]
	kill := spec.Churn.Kills[0]
	res := RestartResult{
		Scenario: spec, KillAt: kill.At, RestartAt: kill.At + kill.Down,
		TornBytes: len(restartTorn),
	}
	env, err := tl.Envelope(tenant.Name)
	if err != nil {
		return res, err
	}
	dir, err := os.MkdirTemp("", "drs-restart-*")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	node, _, err := bootRestartNode(dir)
	if err != nil {
		return res, err
	}
	defer func() {
		if node != nil {
			node.log.Close()
		}
	}()
	events := tl.Events()
	nextEv := 0
	seen := make(map[string]int) // payload -> processed occurrences
	var admitted []string        // every admitted payload, both lives
	var acc float64              // fractional arrival accumulator
	var nextID int64             // arrival counter (ids survive downtime)
	var durableW uint64          // last watermark synced to the log
	duration := spec.DurationSeconds
	for t := 0; float64(t) < duration; t++ {
		// Fire scenario events due at this tick: the kill drops the node
		// cold (no sync, no drain) and tears the tail; the recovery boots
		// the second life and replays.
		for nextEv < len(events) && events[nextEv].At <= float64(t)+1e-9 {
			ev := events[nextEv]
			nextEv++
			res.Timeline = append(res.Timeline, ev.String())
			switch ev.Kind {
			case scenario.KindFail:
				res.Life1 = node.life(durableW)
				res.Life1.From, res.Life1.Until = 0, ev.At
				// kill -9: the log handle drops with the process; Close
				// here only mirrors what write(2) already made durable
				// (the group-commit leader writes before ACK).
				if err := node.log.Close(); err != nil {
					return res, err
				}
				node = nil
				if err := tearTail(dir); err != nil {
					return res, err
				}
			case scenario.KindRecover:
				var rec wal.Recovered
				node, rec, err = bootRestartNode(dir)
				if err != nil {
					return res, err
				}
				res.Recovery = rec
				durableW = rec.Watermark
				// Life-1 pushes are seqs 1..n in admitted order, so index
				// i carries seq i+1: every processed payload past the
				// durable watermark is about to be replayed a second time.
				for i, p := range admitted {
					if uint64(i+1) > rec.Watermark && seen[p] > 0 {
						res.ExpectedDuplicates++
					}
				}
				res.Replayed, err = node.replay(rec.Unacked, seen)
				if err != nil {
					return res, err
				}
			}
		}
		// Arrivals from the envelope, by fractional accumulation — the
		// deterministic integer twin of the Poisson trace both substrates
		// replay. A dead node refuses (clients see a dead socket).
		acc += tenant.BaseRate * env(float64(t))
		n := int(acc)
		acc -= float64(n)
		for i := 0; i < n; i++ {
			id := nextID
			nextID++
			if node == nil {
				res.RefusedDown++
				continue
			}
			payload := fmt.Sprintf("r-%06d", id)
			if v := node.cl.Offer(engine.Values{[]byte(payload)}); v.Admitted {
				admitted = append(admitted, payload)
			}
		}
		if node == nil {
			continue
		}
		node.consume(restartCapacity, seen)
		if t > 0 && t%restartSyncEvery == 0 {
			if err := node.gate.SyncWatermark(); err != nil {
				return res, err
			}
			durableW = node.gate.Watermark()
		}
	}
	// Past the horizon: drain what the surge left in the ring, then sync
	// and compact one last time.
	for node.gate.Ring().Len() > 0 && res.DrainTicks < 1<<16 {
		node.consume(restartCapacity, seen)
		res.DrainTicks++
	}
	if err := node.gate.SyncWatermark(); err != nil {
		return res, err
	}
	durableW = node.gate.Watermark()
	res.Life2 = node.life(durableW)
	res.Life2.From, res.Life2.Until = res.RestartAt, duration
	res.FinalWatermark = node.gate.Watermark()
	res.FinalPushed = node.gate.Ring().Pushed()
	res.FinalSegments = node.log.Segments()
	if err := node.log.Close(); err != nil {
		return res, err
	}
	node = nil

	// The cross-life audit: every admitted payload processed at least
	// once, duplicates counted, and a third boot with nothing to replay.
	res.UniqueAdmitted = int64(len(admitted))
	for _, p := range admitted {
		c := seen[p]
		if c == 0 {
			res.Lost++
		} else {
			res.Duplicates += int64(c - 1)
		}
	}
	l3, rec3, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: restartSegBytes, SyncEvery: -1})
	if err != nil {
		return res, err
	}
	res.VerifyWatermark = rec3.Watermark
	res.VerifyUnacked = rec3.Unacked
	if err := l3.Close(); err != nil {
		return res, err
	}
	res.BooksAgree = res.Lost == 0 &&
		res.Life1.Admitted+res.Life2.Admitted == res.UniqueAdmitted &&
		res.FinalWatermark == res.FinalPushed &&
		res.VerifyUnacked == 0
	return res, nil
}

// Print renders the arc: the event timeline, both lives' books, the
// recovery and replay summary, and the zero-loss audit.
func (r RestartResult) Print(w io.Writer) {
	header(w, fmt.Sprintf("Restart: scenario %q, kill -9 at t=%.0fs, restart at t=%.0fs of %.0fs",
		r.Scenario.Name, r.KillAt, r.RestartAt, r.Scenario.DurationSeconds))
	fmt.Fprintln(w, "timeline:")
	for _, line := range r.Timeline {
		fmt.Fprintf(w, "  %s\n", line)
	}
	lifeRow := func(name string, l RestartLife) {
		fmt.Fprintf(w, "%s (t=%.0f-%.0fs): offered %d, admitted %d, shed %d, processed %d\n",
			name, l.From, l.Until, l.Offered, l.Admitted, l.Shed, l.Processed)
		fmt.Fprintf(w, "  watermark %d acked / %d durable; log tail seq %d, %d segment(s), ring backlog %d\n",
			l.WatermarkMemory, l.WatermarkDurable, l.TailSeq, l.Segments, l.RingBacklog)
	}
	lifeRow("life 1", r.Life1)
	fmt.Fprintf(w, "kill -9: %d admitted records in the ring and %d ACKed past the durable watermark die with the process; %d-byte partial frame left on the tail\n",
		r.Life1.RingBacklog, r.Life1.WatermarkMemory-r.Life1.WatermarkDurable, r.TornBytes)
	fmt.Fprintf(w, "down: %d arrivals refused while the front door was dead\n", r.RefusedDown)
	fmt.Fprintf(w, "recovery: %d segment(s), %d record(s), tail seq %d, watermark %d, torn tail truncated: %d bytes\n",
		r.Recovery.Segments, r.Recovery.Records, r.Recovery.TailSeq, r.Recovery.Watermark, r.Recovery.TruncatedBytes)
	fmt.Fprintf(w, "replay: %d record(s) re-injected, %d already processed (the at-least-once window)\n",
		r.Replayed, r.ExpectedDuplicates)
	lifeRow("life 2", r.Life2)
	fmt.Fprintf(w, "drain: %d tick(s) past the horizon; final watermark %d == pushed %d; %d live segment(s) after pruning\n",
		r.DrainTicks, r.FinalWatermark, r.FinalPushed, r.FinalSegments)
	fmt.Fprintf(w, "audit: %d unique admitted, lost %d, duplicates %d\n",
		r.UniqueAdmitted, r.Lost, r.Duplicates)
	fmt.Fprintf(w, "verify (third boot): watermark %d, unacked %d\n", r.VerifyWatermark, r.VerifyUnacked)
	fmt.Fprintf(w, "books agree: %v\n", r.BooksAgree)
}
