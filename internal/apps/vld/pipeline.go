package vld

import (
	"sync"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/stats"
)

// Detection is the pipeline's output: a logo judged present in a frame.
type Detection struct {
	FrameID int64
	Logo    int
	Matches int
}

// PipelineConfig parameterizes the engine (live) form of VLD.
type PipelineConfig struct {
	// FPS is the mean frame rate of the paced spout; the instantaneous
	// rate is uniform on [FPS/13*1, FPS/13*25] mirroring the paper's
	// modulated source. Use a small value (e.g. 20-50) for laptop runs.
	FPS float64
	// Frames generates the synthetic stream.
	Frames FrameGenConfig
	// Octaves is the extractor's scale-space depth; more octaves make
	// extraction proportionally more expensive (1 = single scale).
	Octaves int
	// Tasks bounds per-bolt parallelism (fixed at start, as in Storm).
	Tasks int
	// Seed drives frame generation and pacing.
	Seed uint64
	// OnDetection, if set, receives every detection (called from executor
	// goroutines; must be safe for concurrent use).
	OnDetection func(Detection)
}

const (
	// matchThreshold is the max squared descriptor distance for a match.
	matchThreshold = 0.12
	// detectThreshold is the matched-pair count that declares a detection.
	detectThreshold = 4
)

// logoLibrary builds the reference descriptors by generating clean stamps
// of each logo and extracting their features — the "pre-generated logo
// features" of §V-A.
func logoLibrary(cfg FrameGenConfig) [][]Descriptor {
	lib := make([][]Descriptor, cfg.Logos)
	for logo := 0; logo < cfg.Logos; logo++ {
		f := Frame{W: 32, H: 32, Pix: make([]float32, 32*32)}
		stampLogo(&f, logo, stats.NewRNG(uint64(logo)+1))
		feats := ExtractFeatures(f, 0)
		descs := make([]Descriptor, len(feats))
		for i, ft := range feats {
			descs[i] = ft.Desc
		}
		lib[logo] = descs
	}
	return lib
}

// Pipeline assembles the live VLD topology: spout "frames" -> bolt
// "extract" -> bolt "match" (fields by frame) -> bolt "aggregate" (fields
// by frame). It returns the topology and the bolt names in model order.
func Pipeline(cfg PipelineConfig) (*engine.Topology, error) {
	if cfg.FPS <= 0 {
		cfg.FPS = MeanFPS
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = 16
	}
	lib := logoLibrary(cfg.Frames)

	frameKey := func(v engine.Values) uint64 {
		switch x := v[0].(type) {
		case Feature:
			return uint64(x.FrameID)
		case match:
			return uint64(x.frameID)
		default:
			return 0
		}
	}

	return engine.NewTopology().
		Spout("frames", 1, func(instance int) engine.Spout {
			return &frameSpout{cfg: cfg, seed: cfg.Seed + uint64(instance)}
		}).
		Bolt("extract", cfg.Tasks, func(int) engine.Bolt {
			return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error {
				frame := t.Values[0].(Frame)
				for _, ft := range ExtractMultiScale(frame, cfg.Octaves, 0) {
					emit(engine.Values{ft})
				}
				return nil
			})
		}).
		Bolt("match", cfg.Tasks, func(int) engine.Bolt {
			return engine.BoltFunc(func(t engine.Tuple, emit engine.Emit) error {
				ft := t.Values[0].(Feature)
				for logo, descs := range lib {
					best := float32(1e9)
					for _, d := range descs {
						if dist := Distance(ft.Desc, d); dist < best {
							best = dist
						}
					}
					if best <= matchThreshold {
						emit(engine.Values{match{frameID: ft.FrameID, logo: logo}})
					}
				}
				return nil
			})
		}).
		Bolt("aggregate", cfg.Tasks, func(int) engine.Bolt {
			return newAggregator(cfg)
		}).
		Shuffle("frames", "extract").
		Fields("extract", "match", frameKey).
		Fields("match", "aggregate", frameKey).
		Build()
}

// match is the matcher's output tuple payload.
type match struct {
	frameID int64
	logo    int
}

// frameSpout paces synthetic frames at the configured mean rate with a
// uniformly modulated instantaneous rate.
type frameSpout struct {
	cfg  PipelineConfig
	seed uint64
}

// Run emits frames until stopped.
func (s *frameSpout) Run(ctx engine.SpoutContext) error {
	rng := stats.NewRNG(s.seed)
	gen := NewFrameGen(s.cfg.Frames, s.seed^0xabcdef)
	scale := s.cfg.FPS / MeanFPS
	rate := s.cfg.FPS
	deadline := time.Now()
	for {
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		if time.Since(deadline) >= 0 {
			rate = rng.Uniform(FPSLow*scale, FPSHigh*scale)
			deadline = time.Now().Add(time.Second)
		}
		gap := rng.Exp(rate)
		timer := time.NewTimer(time.Duration(gap * float64(time.Second)))
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil
		case <-timer.C:
		}
		ctx.Emit(engine.Values{gen.Next()})
	}
}

// aggregator counts matched pairs per (frame, logo) and fires a detection
// when the count crosses the threshold. State is task-local (fields
// grouping guarantees one frame maps to one task); old frames are evicted
// with a bounded FIFO.
type aggregator struct {
	cfg    PipelineConfig
	mu     sync.Mutex
	counts map[frameLogo]int
	fired  map[frameLogo]bool
	order  []frameLogo
}

type frameLogo struct {
	frame int64
	logo  int
}

func newAggregator(cfg PipelineConfig) *aggregator {
	return &aggregator{
		cfg:    cfg,
		counts: make(map[frameLogo]int),
		fired:  make(map[frameLogo]bool),
	}
}

// Process counts one matched pair.
func (a *aggregator) Process(t engine.Tuple, _ engine.Emit) error {
	m := t.Values[0].(match)
	key := frameLogo{frame: m.frameID, logo: m.logo}
	a.mu.Lock()
	if _, seen := a.counts[key]; !seen {
		a.order = append(a.order, key)
		if len(a.order) > 4096 {
			old := a.order[0]
			a.order = a.order[1:]
			delete(a.counts, old)
			delete(a.fired, old)
		}
	}
	a.counts[key]++
	shouldFire := a.counts[key] >= detectThreshold && !a.fired[key]
	if shouldFire {
		a.fired[key] = true
	}
	n := a.counts[key]
	a.mu.Unlock()
	if shouldFire && a.cfg.OnDetection != nil {
		a.cfg.OnDetection(Detection{FrameID: m.frameID, Logo: m.logo, Matches: n})
	}
	return nil
}
