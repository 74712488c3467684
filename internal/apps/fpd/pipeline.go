package fpd

import (
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/stats"
)

// windowEvent is a tweet entering (+1) or leaving (−1) the sliding window.
type windowEvent struct {
	txn   Transaction
	delta int
}

// candidate is the pattern generator's output: one itemset delta.
type candidate struct {
	set   Itemset
	delta int
}

// PipelineConfig parameterizes the live FPD topology.
type PipelineConfig struct {
	// TweetsPerSecond is the Poisson tweet rate (scale down from the
	// paper's 320/s for laptop runs).
	TweetsPerSecond float64
	// WindowSize is the sliding window length in tweets.
	WindowSize int
	// Vocabulary is the Zipf vocabulary size of the tweet generator.
	Vocabulary int
	// Threshold is the absolute support count for "frequent".
	Threshold int
	// Tasks bounds per-bolt parallelism.
	Tasks int
	// Seed drives generation and pacing.
	Seed uint64
	// OnReport, if set, receives every MFP change reaching the reporter
	// (called from executor goroutines; must be safe for concurrent use).
	OnReport func(MFPChange)
}

// liveCandidates bounds the live pattern generator's expansion.
var liveCandidates = CandidateConfig{MaxItems: 6, MaxLen: 3}

func (c *PipelineConfig) fillDefaults() {
	if c.TweetsPerSecond <= 0 {
		c.TweetsPerSecond = 50
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 2000
	}
	if c.Vocabulary <= 0 {
		c.Vocabulary = 200
	}
	if c.Threshold <= 0 {
		c.Threshold = 20
	}
	if c.Tasks <= 0 {
		c.Tasks = 16
	}
}

// windowFeed coordinates the two spouts of Figure 5: the "+" spout emits
// each generated tweet as it enters the window and parks it in a FIFO; the
// "−" spout emits tweets as they leave. Shared by both spout instances.
type windowFeed struct {
	mu     sync.Mutex
	gen    *TweetGen
	fifo   []Transaction
	window int
}

// nextEnter generates one tweet, parks it, and returns its "+" event.
func (w *windowFeed) nextEnter() windowEvent {
	w.mu.Lock()
	defer w.mu.Unlock()
	txn := w.gen.Next()
	w.fifo = append(w.fifo, txn)
	return windowEvent{txn: txn, delta: +1}
}

// nextLeave pops the oldest tweet once the window is full; ok=false when
// the window has room.
func (w *windowFeed) nextLeave() (windowEvent, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.fifo) <= w.window {
		return windowEvent{}, false
	}
	txn := w.fifo[0]
	w.fifo = w.fifo[1:]
	return windowEvent{txn: txn, delta: -1}, true
}

// enterSpout paces "+" events at the tweet rate.
type enterSpout struct {
	feed *windowFeed
	rate float64
	seed uint64
}

// Run emits entering tweets until stopped.
func (s *enterSpout) Run(ctx engine.SpoutContext) error {
	rng := stats.NewRNG(s.seed)
	for {
		gap := rng.Exp(s.rate)
		timer := time.NewTimer(time.Duration(gap * float64(time.Second)))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil
		case <-timer.C:
		}
		ctx.Emit(engine.Values{s.feed.nextEnter()})
	}
}

// leaveSpout drains the window FIFO, emitting "−" events.
type leaveSpout struct {
	feed *windowFeed
}

// Run polls the window for departures until stopped.
func (s *leaveSpout) Run(ctx engine.SpoutContext) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-tick.C:
		}
		for {
			ev, ok := s.feed.nextLeave()
			if !ok {
				break
			}
			ctx.Emit(engine.Values{ev})
		}
	}
}

// detector is the stateful partitioned bolt of Figure 5. It owns the
// itemsets that hash to its task and learns the global frequent set from
// loop notifications ("the loop ensures that the state change
// notifications be sent to all the instances").
type detector struct {
	store *MFPStore
}

// Process handles either a candidate (count update) or a loop notification
// (frequent-set change from any task, including itself).
func (d *detector) Process(t engine.Tuple, emit engine.Emit) error {
	switch x := t.Values[0].(type) {
	case candidate:
		if ch, changed := d.store.Update(x.set, x.delta); changed {
			emit.To("loop")(engine.Values{ch})
		}
	case FreqChange:
		for _, mc := range d.store.ApplyNotification(x) {
			emit.To("mfp")(engine.Values{mc})
		}
	}
	return nil
}

// reporter presents MFP updates to the user (paper: writes to HDFS; here a
// callback plus an internal counter).
type reporter struct {
	cfg *PipelineConfig
}

// Process forwards one MFP change.
func (r *reporter) Process(t engine.Tuple, _ engine.Emit) error {
	mc := t.Values[0].(MFPChange)
	if r.cfg.OnReport != nil {
		r.cfg.OnReport(mc)
	}
	return nil
}

// Pipeline assembles the live FPD topology of Figure 5: two spouts feeding
// a pattern generator, a detector with a broadcast loop, and a reporter.
func Pipeline(cfg PipelineConfig) (*engine.Topology, error) {
	cfg.fillDefaults()
	feed := &windowFeed{
		gen:    NewTweetGen(cfg.Vocabulary, cfg.Seed),
		window: cfg.WindowSize,
	}
	setKey := func(v engine.Values) uint64 {
		return v[0].(candidate).set.Hash()
	}
	return engine.NewTopology().
		Spout("enter", 1, func(int) engine.Spout {
			return &enterSpout{feed: feed, rate: cfg.TweetsPerSecond, seed: cfg.Seed + 1}
		}).
		Spout("leave", 1, func(int) engine.Spout {
			return &leaveSpout{feed: feed}
		}).
		Bolt("generate", cfg.Tasks, func(int) engine.Bolt {
			return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error {
				ev := t.Values[0].(windowEvent)
				for _, set := range liveCandidates.Candidates(ev.txn) {
					emit(engine.Values{candidate{set: set, delta: ev.delta}})
				}
				return nil
			})
		}).
		Bolt("detect", cfg.Tasks, func(int) engine.Bolt {
			return &detector{store: NewMFPStore(cfg.Threshold)}
		}).
		Bolt("report", cfg.Tasks, func(int) engine.Bolt {
			return &reporter{cfg: &cfg}
		}).
		Shuffle("enter", "generate").
		Shuffle("leave", "generate").
		Fields("generate", "detect", setKey).
		BroadcastOn("loop", "detect", "detect").
		ShuffleOn("mfp", "detect", "report").
		Build()
}
