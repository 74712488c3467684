package vld

import (
	"math"

	"github.com/drs-repro/drs/internal/stats"
)

// Frame is one synthetic grayscale video frame.
type Frame struct {
	// ID is the frame sequence number.
	ID int64
	// W and H are the dimensions; Pix is row-major, length W*H, in [0, 1].
	W, H int
	Pix  []float32
	// Logo is the id of the logo stamped into this frame, or -1. Carried
	// as generation ground truth for detection-accuracy tests only; the
	// pipeline never reads it.
	Logo int
}

// Descriptor is an 8-bin gradient-orientation histogram around a feature
// point — a miniature of SIFT's descriptor, enough for L2 matching.
type Descriptor [8]float32

// Feature is one extracted interest point.
type Feature struct {
	FrameID int64
	X, Y    int
	Desc    Descriptor
}

// FrameGenConfig parameterizes the synthetic source.
type FrameGenConfig struct {
	// W, H are frame dimensions (default 64x48).
	W, H int
	// Logos is the number of distinct logo stamps available.
	Logos int
	// LogoProb is the probability a frame carries a logo.
	LogoProb float64
}

// frameNoise is the background noise amplitude, in [0, 1].
const frameNoise = 0.05

// FrameGen produces deterministic synthetic frames: low-amplitude noise
// plus, with probability LogoProb, one of a fixed set of high-contrast
// logo stamps (distinct oriented patterns, so their descriptors differ).
type FrameGen struct {
	cfg FrameGenConfig
	rng *stats.RNG
	id  int64
}

// NewFrameGen builds a generator with the given seed.
func NewFrameGen(cfg FrameGenConfig, seed uint64) *FrameGen {
	if cfg.W <= 0 {
		cfg.W = 64
	}
	if cfg.H <= 0 {
		cfg.H = 48
	}
	if cfg.Logos <= 0 {
		cfg.Logos = 4
	}
	if cfg.LogoProb == 0 {
		cfg.LogoProb = 0.5
	}
	return &FrameGen{cfg: cfg, rng: stats.NewRNG(seed)}
}

// Next generates the next frame.
func (g *FrameGen) Next() Frame {
	f := Frame{
		ID:   g.id,
		W:    g.cfg.W,
		H:    g.cfg.H,
		Pix:  make([]float32, g.cfg.W*g.cfg.H),
		Logo: -1,
	}
	g.id++
	for i := range f.Pix {
		f.Pix[i] = float32(g.rng.Float64() * frameNoise)
	}
	if g.rng.Bernoulli(g.cfg.LogoProb) {
		logo := g.rng.IntN(g.cfg.Logos)
		f.Logo = logo
		stampLogo(&f, logo, g.rng)
	}
	return f
}

// stampLogo draws logo-specific oriented bar patterns at a random position.
// Each logo uses a different bar angle, which yields distinct gradient
// orientation histograms.
func stampLogo(f *Frame, logo int, rng *stats.RNG) {
	const size = 16
	x0 := rng.IntN(maxInt(1, f.W-size))
	y0 := rng.IntN(maxInt(1, f.H-size))
	for dy := 0; dy < size; dy++ {
		for dx := 0; dx < size; dx++ {
			// Bars perpendicular to the logo's angle: logo k uses stripes
			// along direction k*45 degrees.
			var phase int
			switch logo % 4 {
			case 0:
				phase = dx
			case 1:
				phase = dy
			case 2:
				phase = dx + dy
			default:
				phase = dx - dy + size
			}
			if (phase/3)%2 == 0 {
				f.Pix[(y0+dy)*f.W+(x0+dx)] = 1
			}
		}
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ExtractFeatures finds interest points as local maxima of gradient
// magnitude and describes each with an 8-bin orientation histogram over a
// 5x5 neighborhood. The cost is dominated by the full-frame gradient pass
// — like SIFT, it grows with frame area and detail.
func ExtractFeatures(f Frame, maxFeatures int) []Feature {
	w, h := f.W, f.H
	if w < 3 || h < 3 {
		return nil
	}
	gx := make([]float32, w*h)
	gy := make([]float32, w*h)
	mag := make([]float32, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			i := y*w + x
			gx[i] = f.Pix[i+1] - f.Pix[i-1]
			gy[i] = f.Pix[i+w] - f.Pix[i-w]
			mag[i] = gx[i]*gx[i] + gy[i]*gy[i]
		}
	}
	var feats []Feature
	const threshold = 0.25
	for y := 2; y < h-2; y++ {
		for x := 2; x < w-2; x++ {
			i := y*w + x
			m := mag[i]
			if m < threshold {
				continue
			}
			if m < mag[i-1] || m < mag[i+1] || m < mag[i-w] || m < mag[i+w] {
				continue
			}
			feats = append(feats, Feature{
				FrameID: f.ID,
				X:       x,
				Y:       y,
				Desc:    describe(gx, gy, w, x, y),
			})
			if maxFeatures > 0 && len(feats) >= maxFeatures {
				return feats
			}
		}
	}
	return feats
}

// describe builds the 8-bin orientation histogram over a 5x5 patch.
func describe(gx, gy []float32, w, x, y int) Descriptor {
	var d Descriptor
	for dy := -2; dy <= 2; dy++ {
		for dx := -2; dx <= 2; dx++ {
			i := (y+dy)*w + (x + dx)
			bin := orientationBin(gx[i], gy[i])
			d[bin] += gx[i]*gx[i] + gy[i]*gy[i]
		}
	}
	// L2-normalize so matching is contrast-invariant.
	var norm float32
	for _, v := range d {
		norm += v * v
	}
	if norm > 0 {
		inv := 1 / sqrt32(norm)
		for i := range d {
			d[i] *= inv
		}
	}
	return d
}

// orientationBin quantizes atan2(gy, gx) into 8 octants without trig calls.
func orientationBin(gx, gy float32) int {
	bin := 0
	if gy < 0 {
		bin |= 4
		gx, gy = -gx, -gy
	}
	if gx < 0 {
		bin |= 2
		gx, gy = gy, -gx
	}
	if gy > gx {
		bin |= 1
	}
	return bin
}

// Distance is the squared L2 distance between descriptors.
func Distance(a, b Descriptor) float32 {
	var s float32
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

// ExtractMultiScale extracts features over a small scale-space pyramid,
// like SIFT: the frame is repeatedly box-blurred and features are collected
// at every octave. Cost grows linearly with octaves × frame area, giving
// the extractor its SIFT-like weight (the paper: "this step is
// time-consuming, involving convolutions on the 2-dimensional image
// space"). octaves <= 1 degenerates to ExtractFeatures.
func ExtractMultiScale(f Frame, octaves, maxFeatures int) []Feature {
	if octaves <= 1 {
		return ExtractFeatures(f, maxFeatures)
	}
	feats := ExtractFeatures(f, maxFeatures)
	pix := f.Pix
	for o := 1; o < octaves; o++ {
		pix = boxBlur(pix, f.W, f.H, 1+o/2)
		blurred := Frame{ID: f.ID, W: f.W, H: f.H, Pix: pix, Logo: f.Logo}
		more := ExtractFeatures(blurred, maxFeatures)
		feats = append(feats, more...)
		if maxFeatures > 0 && len(feats) >= maxFeatures {
			return feats[:maxFeatures]
		}
	}
	return feats
}

// boxBlur applies a (2r+1)x(2r+1) box filter using a summed-area table, so
// the cost is O(w·h) regardless of radius.
func boxBlur(pix []float32, w, h, r int) []float32 {
	// Summed-area table with an extra top row and left column of zeros.
	sat := make([]float64, (w+1)*(h+1))
	for y := 0; y < h; y++ {
		rowSum := 0.0
		for x := 0; x < w; x++ {
			rowSum += float64(pix[y*w+x])
			sat[(y+1)*(w+1)+(x+1)] = sat[y*(w+1)+(x+1)] + rowSum
		}
	}
	out := make([]float32, w*h)
	for y := 0; y < h; y++ {
		y0, y1 := clampInt(y-r, 0, h-1), clampInt(y+r, 0, h-1)
		for x := 0; x < w; x++ {
			x0, x1 := clampInt(x-r, 0, w-1), clampInt(x+r, 0, w-1)
			area := float64((y1 - y0 + 1) * (x1 - x0 + 1))
			sum := sat[(y1+1)*(w+1)+(x1+1)] - sat[y0*(w+1)+(x1+1)] -
				sat[(y1+1)*(w+1)+x0] + sat[y0*(w+1)+x0]
			out[y*w+x] = float32(sum / area)
		}
	}
	return out
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
