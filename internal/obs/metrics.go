package obs

import (
	"math"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// The metrics half of the package is a hand-rolled Prometheus text
// exposition (format 0.0.4) with no client library dependency. Two series
// shapes cover the stack: func-backed counters/gauges that read the
// atomic counters subsystems already keep (zero bookkeeping on hot
// paths), and fixed-bound histograms whose Observe is a few atomic adds.
// Label sets are pre-registered strings, so scraping formats no labels
// and the exposition is byte-stable modulo the counter values.

// MetricType is the Prometheus family type of a registered metric.
type MetricType uint8

// Family types understood by the exposition writer.
const (
	// Counter is a monotonically non-decreasing value.
	Counter MetricType = iota
	// Gauge is a value that can go up and down.
	Gauge
)

// typeNames maps MetricType to its exposition keyword.
var typeNames = [...]string{Counter: "counter", Gauge: "gauge"}

// series is one labeled sample of a func-backed family.
type series struct {
	labels string // pre-rendered `name="value",...` (no braces), "" for none
	read   func() float64
}

// family is one metric name: help text, type, and its samples.
type family struct {
	name   string
	help   string
	typ    MetricType
	series []series
	hists  []*Histogram // histogram families only
	bounds []float64    // histogram families only
}

// Registry holds metric families and writes the Prometheus text
// exposition. Families print sorted by name; series print in
// registration order — both stable, so scrapes diff cleanly.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string // sorted family names
	bufPool  sync.Pool
}

// NewRegistry builds an empty metrics registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup finds or creates a family, keeping the name index sorted.
// Caller holds r.mu.
func (r *Registry) lookup(name, help string, typ MetricType, hist bool) *family {
	f, ok := r.families[name]
	if ok {
		return f
	}
	f = &family{name: name, help: help, typ: typ}
	if hist {
		f.hists = []*Histogram{}
	}
	r.families[name] = f
	i := sort.SearchStrings(r.names, name)
	r.names = slices.Insert(r.names, i, name)
	return f
}

// Func registers one labeled sample whose value is produced by read at
// scrape time — the bridge to counters subsystems already maintain.
// labels is a pre-rendered Prometheus label body such as
// `tenant="gold"` (empty for an unlabeled sample); registering the same
// family name again appends a series to it.
func (r *Registry) Func(name, help string, typ MetricType, labels string, read func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, typ, false)
	f.series = append(f.series, series{labels: labels, read: read})
}

// Histogram registers one labeled histogram series with the given bucket
// upper bounds (ascending; +Inf is implicit) and returns it. All series
// of one family must share bounds; the first registration wins.
func (r *Registry) Histogram(name, help string, bounds []float64, labels string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, Counter, true)
	if f.bounds == nil {
		f.bounds = slices.Clone(bounds)
	}
	h := newHistogram(f.bounds, labels)
	f.hists = append(f.hists, h)
	return h
}

// Histogram is a fixed-bound histogram with atomic buckets: Observe is a
// bucket search plus two atomic adds and a CAS-loop float add — zero
// allocations, safe for concurrent use. A nil histogram ignores
// observations, so wiring is optional.
type Histogram struct {
	bounds  []float64 // ascending upper bounds, +Inf implicit
	les     []string  // pre-rendered le label values, one per bound
	labels  string
	buckets []atomic.Uint64 // non-cumulative per-bound counts
	inf     atomic.Uint64   // observations above the last bound
	count   atomic.Uint64
	sum     atomic.Uint64 // float64 bits, CAS-updated
}

// newHistogram builds a histogram for the given bounds. The le label
// strings are rendered once here, not per scrape: a bound never changes
// after registration, and formatting them in appendTo was the dominant
// allocation of the whole /metrics render.
func newHistogram(bounds []float64, labels string) *Histogram {
	les := make([]string, len(bounds))
	for i, b := range bounds {
		les[i] = strconv.FormatFloat(b, 'g', -1, 64)
	}
	return &Histogram{
		bounds:  bounds,
		les:     les,
		labels:  labels,
		buckets: make([]atomic.Uint64, len(bounds)),
	}
}

// Observe records one value. Safe on a nil histogram (no-op).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Linear scan: bound lists are short (≤ ~20) and branch-predictable,
	// beating sort.SearchFloat64s's allocation-free but cache-hostile
	// binary walk at these sizes.
	placed := false
	for i, b := range h.bounds {
		if v <= b {
			h.buckets[i].Add(1)
			placed = true
			break
		}
	}
	if !placed {
		h.inf.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count reports the number of observations.
//
//checkdoc:testonly test hook: a test reads a histogram's total without parsing an exposition
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reports the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Write appends the full text exposition to buf and returns the extended
// buffer. Families are emitted in name order with # HELP and # TYPE
// headers; histogram series emit cumulative buckets with le labels plus
// _sum and _count.
func (r *Registry) Write(buf []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.names {
		f := r.families[name]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.help...)
		buf = append(buf, '\n')
		buf = append(buf, "# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		if f.hists != nil {
			buf = append(buf, "histogram"...)
		} else {
			buf = append(buf, typeNames[f.typ]...)
		}
		buf = append(buf, '\n')
		for _, s := range f.series {
			buf = appendSample(buf, f.name, "", s.labels, "", s.read())
		}
		for _, h := range f.hists {
			buf = h.appendTo(buf, f.name)
		}
	}
	return buf
}

// appendTo writes one histogram series: cumulative buckets, sum, count.
func (h *Histogram) appendTo(buf []byte, name string) []byte {
	cum := uint64(0)
	for i := range h.bounds {
		cum += h.buckets[i].Load()
		buf = appendSample(buf, name, "_bucket", h.labels, h.les[i], float64(cum))
	}
	cum += h.inf.Load()
	buf = appendSample(buf, name, "_bucket", h.labels, "+Inf", float64(cum))
	buf = appendSample(buf, name, "_sum", h.labels, "", h.Sum())
	return appendSample(buf, name, "_count", h.labels, "", float64(h.count.Load()))
}

// appendSample writes one exposition line:
// name[suffix]{labels,le="bound"} value.
func appendSample(buf []byte, name, suffix, labels, le string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, suffix...)
	if labels != "" || le != "" {
		buf = append(buf, '{')
		buf = append(buf, labels...)
		if le != "" {
			if labels != "" {
				buf = append(buf, ',')
			}
			buf = append(buf, `le="`...)
			buf = append(buf, le...)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	return append(buf, '\n')
}

// Handler serves the exposition over HTTP with the Prometheus text
// content type, reusing pooled scrape buffers.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		buf, _ := r.bufPool.Get().(*[]byte)
		if buf == nil {
			b := make([]byte, 0, 16<<10)
			buf = &b
		}
		*buf = r.Write((*buf)[:0])
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(*buf)
		r.bufPool.Put(buf)
	})
}
