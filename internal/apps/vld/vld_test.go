package vld

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/engine"
	"github.com/drs-repro/drs/internal/sim"
	"github.com/drs-repro/drs/internal/stats"
)

func TestModelReproducesPaperAllocations(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	k22, err := m.AssignProcessors(22)
	if err != nil {
		t.Fatal(err)
	}
	if want := RecommendedAllocation(); !equal(k22, want) {
		t.Errorf("AssignProcessors(22) = %v, want %v (paper Fig. 6)", k22, want)
	}
	k17, err := m.AssignProcessors(17)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{8, 8, 1}; !equal(k17, want) { // Fig. 10 initial state
		t.Errorf("AssignProcessors(17) = %v, want %v (paper Fig. 10)", k17, want)
	}
}

func TestRecommendedIsBestOfFigure6(t *testing.T) {
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	best, bestET := -1, math.Inf(1)
	for i, alloc := range Figure6Allocations() {
		et, err := m.ExpectedSojourn(alloc)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsInf(et, 1) {
			t.Errorf("Fig. 6 allocation %v unstable under the profile", alloc)
		}
		if et < bestET {
			best, bestET = i, et
		}
	}
	if !equal(Figure6Allocations()[best], RecommendedAllocation()) {
		t.Errorf("model prefers %v over the starred allocation", Figure6Allocations()[best])
	}
}

func TestSimTracksModelEstimate(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation too long for -short")
	}
	m, err := Model()
	if err != nil {
		t.Fatal(err)
	}
	alloc := RecommendedAllocation()
	want, err := m.ExpectedSojourn(alloc)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := SimConfig(alloc, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetWarmup(60)
	s.RunUntil(600) // a 10-minute experiment, as in Fig. 6
	got := s.CompletedStats().Mean()
	// The simulation uses lognormal services, modulated arrivals and
	// network delay, so it must sit somewhat ABOVE the M/M/k estimate but
	// in its neighborhood (the paper's "slight underestimation" for VLD).
	if got < want {
		t.Errorf("measured %0.3fs below model %0.3fs: network should add latency", got, want)
	}
	if got > want*1.8 {
		t.Errorf("measured %0.3fs too far above model %0.3fs", got, want)
	}
}

func TestSimConfigValidation(t *testing.T) {
	if _, err := SimConfig([]int{1, 2}, 1); err == nil {
		t.Error("short allocation should error")
	}
}

func TestFrameGenDeterminism(t *testing.T) {
	a := NewFrameGen(FrameGenConfig{}, 7)
	b := NewFrameGen(FrameGenConfig{}, 7)
	for i := 0; i < 10; i++ {
		fa, fb := a.Next(), b.Next()
		if fa.Logo != fb.Logo {
			t.Fatal("same seed produced different logos")
		}
		for j := range fa.Pix {
			if fa.Pix[j] != fb.Pix[j] {
				t.Fatal("same seed produced different pixels")
			}
		}
	}
}

func TestFrameGenDefaults(t *testing.T) {
	g := NewFrameGen(FrameGenConfig{}, 1)
	f := g.Next()
	if f.W != 64 || f.H != 48 || len(f.Pix) != 64*48 {
		t.Errorf("default frame %dx%d", f.W, f.H)
	}
}

func TestExtractFindsLogoFeatures(t *testing.T) {
	// A clean logo frame must yield clearly more features than noise.
	noise := Frame{W: 64, H: 48, Pix: make([]float32, 64*48)}
	noiseFeats := ExtractFeatures(noise, 0)

	stamped := Frame{W: 64, H: 48, Pix: make([]float32, 64*48)}
	stampLogo(&stamped, 0, stats.NewRNG(3))
	logoFeats := ExtractFeatures(stamped, 0)
	if len(logoFeats) <= len(noiseFeats)+5 {
		t.Errorf("logo frame features %d vs flat %d: stamp not salient", len(logoFeats), len(noiseFeats))
	}
}

func TestExtractMaxFeaturesCap(t *testing.T) {
	f := Frame{W: 64, H: 48, Pix: make([]float32, 64*48)}
	stampLogo(&f, 2, stats.NewRNG(4))
	feats := ExtractFeatures(f, 3)
	if len(feats) > 3 {
		t.Errorf("cap ignored: %d features", len(feats))
	}
}

func TestExtractTinyFrame(t *testing.T) {
	if got := ExtractFeatures(Frame{W: 2, H: 2, Pix: make([]float32, 4)}, 0); got != nil {
		t.Errorf("tiny frame should yield no features, got %d", len(got))
	}
}

func TestDescriptorsDistinguishLogos(t *testing.T) {
	// Descriptors of a logo's own stamp must match its library entry more
	// closely than a different logo's entries (on average).
	lib := logoLibrary(FrameGenConfig{Logos: 4})
	for logo := 0; logo < 2; logo++ {
		f := Frame{W: 32, H: 32, Pix: make([]float32, 32*32)}
		stampLogo(&f, logo, stats.NewRNG(uint64(90+logo)))
		feats := ExtractFeatures(f, 0)
		if len(feats) == 0 {
			t.Fatalf("logo %d produced no features", logo)
		}
		own, other := 0.0, 0.0
		for _, ft := range feats {
			own += float64(bestDistance(ft.Desc, lib[logo]))
			other += float64(bestDistance(ft.Desc, lib[(logo+1)%4]))
		}
		if own >= other {
			t.Errorf("logo %d: own distance %g not below other %g", logo, own, other)
		}
	}
}

func bestDistance(d Descriptor, lib []Descriptor) float32 {
	best := float32(math.MaxFloat32)
	for _, l := range lib {
		if dist := Distance(d, l); dist < best {
			best = dist
		}
	}
	return best
}

func TestOrientationBinCoversOctants(t *testing.T) {
	seen := make(map[int]bool)
	dirs := [][2]float32{
		{1, 0.2}, {0.2, 1}, {-0.2, 1}, {-1, 0.2},
		{-1, -0.2}, {-0.2, -1}, {0.2, -1}, {1, -0.2},
	}
	for _, d := range dirs {
		bin := orientationBin(d[0], d[1])
		if bin < 0 || bin > 7 {
			t.Fatalf("bin %d out of range", bin)
		}
		seen[bin] = true
	}
	if len(seen) != 8 {
		t.Errorf("8 directions hit %d distinct bins", len(seen))
	}
}

func TestDistanceProperties(t *testing.T) {
	a := Descriptor{1, 0, 0, 0, 0, 0, 0, 0}
	b := Descriptor{0, 1, 0, 0, 0, 0, 0, 0}
	if Distance(a, a) != 0 {
		t.Error("self distance must be 0")
	}
	if got := Distance(a, b); got != 2 {
		t.Errorf("unit-vector distance = %g, want 2", got)
	}
	if Distance(a, b) != Distance(b, a) {
		t.Error("distance must be symmetric")
	}
}

func TestLivePipelineDetectsLogos(t *testing.T) {
	if testing.Short() {
		t.Skip("live engine run")
	}
	var detections atomic.Int64
	var mu sync.Mutex
	seenLogos := make(map[int]bool)
	cfg := PipelineConfig{
		FPS:    80, // scaled up so a 2-second test sees plenty of frames
		Frames: FrameGenConfig{W: 48, H: 36, Logos: 4, LogoProb: 0.7},
		Tasks:  8,
		Seed:   42,
		OnDetection: func(d Detection) {
			detections.Add(1)
			mu.Lock()
			seenLogos[d.Logo] = true
			mu.Unlock()
		},
	}
	topo, err := Pipeline(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := topo.Start(engine.RunConfig{
		Alloc: map[string]int{"extract": 4, "match": 4, "aggregate": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(2 * time.Second)
	rep := run.DrainInterval()
	if err := run.Stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if rep.ExternalArrivals < 50 {
		t.Errorf("only %d frames in 2s at 80fps", rep.ExternalArrivals)
	}
	if rep.Ops[0].Served == 0 || rep.Ops[1].Served == 0 {
		t.Errorf("pipeline stalled: %+v", rep.Ops)
	}
	if detections.Load() == 0 {
		t.Error("no logo detections on a 70%-logo stream")
	}
	for _, name := range []string{"extract", "match", "aggregate"} {
		if n, last := mustErrors(t, run, name); n != 0 {
			t.Errorf("bolt %s had %d errors, last: %v", name, n, last)
		}
	}
}

func mustErrors(t *testing.T, run *engine.Run, bolt string) (int64, error) {
	t.Helper()
	n, last := run.Errors(bolt)
	return n, last
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
