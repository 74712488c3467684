package main

import (
	"fmt"
	"time"
)

// workload is one traffic mix with every tuned value frozen. Nothing here
// is adjusted at run time: a later change is measured against exactly the
// load this file names. The README gives the reason for each value.
type workload struct {
	Name string `json:"name"`
	// Transport is "http-batch" (NDJSON bodies of Batch records),
	// "http-single" (one record per POST) or "tcp" (one record per
	// length-prefixed frame, pipelined).
	Transport string `json:"transport"`
	Batch     int    `json:"batch"`
	Durable   bool   `json:"durable"` // WAL attached, pre-seeded with Preseed records
	Preseed   int    `json:"preseed"`
	Remote    bool   `json:"remote"`  // every executor bound to an in-SUT worker
	Control   bool   `json:"control"` // supervisor + controller + lease; bolts sleep
	// RateRPS is the open-loop rate in records/s of the rate phase. On the
	// control workload the arc is RateRPS → SurgeRPS → RateRPS over a
	// quarter, a half and a quarter of the run.
	RateRPS  float64 `json:"rate_rps"`
	SurgeRPS float64 `json:"surge_rps"`
	// Window bounds sent-minus-completed records in the closed-loop phase.
	Window int `json:"window"`
	// LimitMS is the latency limit behind tmax_met_share. TmaxMS is the
	// mean-sojourn target the gate and the controller defend (Control
	// only): the paper's Tmax bounds the mean, so a per-record limit sits
	// a multiple above it.
	LimitMS float64 `json:"limit_ms"`
	TmaxMS  float64 `json:"tmax_ms"`
	// Clients is the client-id universe; ZipfS > 1 skews the draw.
	Clients int     `json:"clients"`
	ZipfS   float64 `json:"zipf_s"`
	// ClientRate is the per-client token bucket (0 = off). It never binds.
	ClientRate float64 `json:"client_rate"`
	// TracePermille and DecisionLog are the shipping observability knobs
	// of the untraced pass (0 = tracer off).
	TracePermille int  `json:"trace_permille"`
	DecisionLog   bool `json:"decision_log"`
	// Alloc is the fixed (or, under Control, the initial) allocation per
	// stage; Tasks bounds executors per stage.
	Alloc [3]int `json:"alloc"`
	Tasks int    `json:"tasks"`
	// ServiceMeanMS are the sleeping bolts' exponential means (Control).
	ServiceMeanMS [3]float64 `json:"service_mean_ms"`
	// Control-plane shape (Control only).
	IntervalMS      int `json:"interval_ms"`
	SlotsPerMachine int `json:"slots_per_machine"`
	MaxMachines     int `json:"max_machines"`
}

// Timing shared by every workload. The measured time of a run is the
// --seconds argument: half open loop, half closed loop on the data-plane
// workloads, the whole arc on drs-step.
const (
	drainSeconds   = 5.0
	setupBoots     = 15 // SUT boots per run; setup_s is their median
	setupBootEvery = 200 * time.Millisecond
	pipelineDepth  = 64
	connections    = 2
	readyTimeoutS  = 60
	stageCount     = 3
	ringCapacity   = 1 << 16
	spoutMaxBatch  = 256
	remoteMachines = 2
	sutGOMAXPROCS  = "1"
	// tracedRateShare scales the data-plane rate of a --trace 1 run (both
	// its passes, so that their difference is the tracing overhead): with
	// every root traced and every record stamped, the tracer's assembler
	// and the decorators would saturate two cores at the full frozen rate,
	// and the pass would measure its own backlog.
	tracedRateShare = 0.5
)

var stageNames = map[bool][stageCount]string{
	false: {"parse", "enrich", "sink"},
	true:  {"extract", "match", "agg"},
}

// windowSeconds is the length of the windows the latency metrics are
// medians over: short on the data plane, where a tenth of a second holds
// thousands of records; a second on drs-step, which sees hundreds.
func (w workload) windowSeconds() float64 {
	if w.Control {
		return 1
	}
	return 0.1
}

func (w workload) stages() [stageCount]string { return stageNames[w.Control] }

// workloads lists the four mixes in the order BENCHMARK.json names them.
var workloads = []workload{
	{
		Name: "http-batch", Transport: "http-batch", Batch: 64,
		RateRPS: 80000, Window: 2048, LimitMS: 50,
		Clients: 100000, ZipfS: 1.1, ClientRate: 1e6,
		Alloc: [3]int{2, 2, 2}, Tasks: 4,
	},
	{
		Name: "tcp-durable", Transport: "tcp", Batch: 1,
		Durable: true, Preseed: 20000,
		RateRPS: 20000, Window: 2048, LimitMS: 50,
		Clients: 2,
		Alloc:   [3]int{2, 2, 2}, Tasks: 4,
	},
	{
		Name: "remote-shuttle", Transport: "tcp", Batch: 1,
		Remote:  true,
		RateRPS: 22000, Window: 2048, LimitMS: 50,
		Clients:       2,
		TracePermille: 10, DecisionLog: true,
		Alloc: [3]int{2, 2, 2}, Tasks: 4,
	},
	{
		Name: "drs-step", Transport: "http-single", Batch: 1,
		Control: true,
		RateRPS: 60, SurgeRPS: 180, TmaxMS: 40, LimitMS: 100,
		Clients:       2,
		TracePermille: 10, DecisionLog: true,
		Alloc: [3]int{1, 2, 1}, Tasks: 24,
		ServiceMeanMS: [3]float64{2, 8, 4},
		IntervalMS:    200, SlotsPerMachine: 4, MaxMachines: 6,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// warmupSeconds is the discarded open loop at the base rate before the
// measured phases: on drs-step the control loop needs a dozen rounds to
// settle on the base rate before the arc starts.
func (w workload) warmupSeconds() float64 {
	if w.Control {
		return 3
	}
	return 2
}

// baseSegment is an open loop at the frozen base rate, in requests per
// second. slow is the traced run's scaling of the data-plane rate.
func (w workload) baseSegment(seconds float64, slow bool) segment {
	per := float64(w.Batch)
	if slow && !w.Control {
		per /= tracedRateShare
	}
	return segment{Rate: w.RateRPS / per, Seconds: seconds}
}

// openSegments is the open-loop arc of the measured latency phase.
func (w workload) openSegments(seconds float64, slow bool) []segment {
	if !w.Control {
		return []segment{w.baseSegment(seconds, slow)}
	}
	return []segment{
		w.baseSegment(seconds/4, slow),
		{Rate: w.SurgeRPS / float64(w.Batch), Seconds: seconds / 2},
		w.baseSegment(seconds/4, slow),
	}
}
