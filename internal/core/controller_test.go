package core

import (
	"math"
	"slices"
	"testing"
)

// vldSnapshot uses a VLD-like profile: 13 fps at the extractor, 520
// features/s at the matcher, 130 matches/s at the aggregator. Under these
// rates AssignProcessors gives the paper's (10:11:1) at Kmax=22 and
// (8:8:1) at Kmax=17.
func vldSnapshot(alloc []int, kmax int, measured float64) Snapshot {
	return Snapshot{
		Lambda0: 13,
		Ops: []OpRates{
			{Name: "extract", Lambda: 13, Mu: 1 / 0.45},
			{Name: "match", Lambda: 520, Mu: 1 / 0.012},
			{Name: "aggregate", Lambda: 130, Mu: 500},
		},
		MeasuredSojourn: measured,
		Alloc:           alloc,
		Kmax:            kmax,
	}
}

func TestControllerConfigValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  ControllerConfig
	}{
		{"missing mode", ControllerConfig{}},
		{"min-latency without kmax", ControllerConfig{Mode: ModeMinLatency}},
		{"min-resource without tmax", ControllerConfig{Mode: ModeMinResource}},
		{"min-resource with NaN tmax", ControllerConfig{Mode: ModeMinResource, Tmax: math.NaN()}},
		{"negative gain", ControllerConfig{Mode: ModeMinLatency, Kmax: 5, MinGain: -0.1}},
		{"gain >= 1", ControllerConfig{Mode: ModeMinLatency, Kmax: 5, MinGain: 1}},
		{"bad slack", ControllerConfig{Mode: ModeMinResource, Tmax: 1, ScaleInSlack: 1}},
		// A check that says what it refuses lets NaN through.
		{"NaN gain", ControllerConfig{Mode: ModeMinLatency, Kmax: 5, MinGain: math.NaN()}},
		{"NaN slack", ControllerConfig{Mode: ModeMinResource, Tmax: 1, ScaleInSlack: math.NaN()}},
		{"NaN scale-in utilization", ControllerConfig{Mode: ModeMinResource, Tmax: 1, MaxScaleInUtilization: math.NaN()}},
		{"negative slots", ControllerConfig{Mode: ModeMinLatency, Kmax: 5, SlotsPerMachine: -1}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewController(tt.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	if _, err := NewController(ControllerConfig{Mode: ModeMinLatency, Kmax: 22}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestMinLatencyRecommendsRebalance(t *testing.T) {
	c, err := NewController(ControllerConfig{Mode: ModeMinLatency, Kmax: 22, MinGain: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	// Start from a clearly suboptimal allocation (paper Fig. 9 initial states).
	d, err := c.Step(vldSnapshot([]int{12, 9, 1}, 22, 1.2))
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionRebalance {
		t.Fatalf("action = %v (%s), want rebalance", d.Action, d.Reason)
	}
	want := []int{10, 11, 1}
	if !slices.Equal(d.Target, want) {
		t.Errorf("target = %v, want %v", d.Target, want)
	}
}

func TestMinLatencyNoChurnAtOptimum(t *testing.T) {
	c, _ := NewController(ControllerConfig{Mode: ModeMinLatency, Kmax: 22, MinGain: 0.02})
	d, err := c.Step(vldSnapshot([]int{10, 11, 1}, 22, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionNone {
		t.Errorf("action = %v, want none at optimum (%s)", d.Action, d.Reason)
	}
}

func TestMinLatencyGainThresholdSuppressesSmallWins(t *testing.T) {
	// (9:12:1) is close to optimal; a high MinGain must suppress the move.
	c, _ := NewController(ControllerConfig{Mode: ModeMinLatency, Kmax: 22, MinGain: 0.6})
	d, err := c.Step(vldSnapshot([]int{9, 12, 1}, 22, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionNone {
		t.Errorf("action = %v, want none under 60%% gain threshold (%s)", d.Action, d.Reason)
	}
	// With no threshold the same snapshot rebalances.
	c2, _ := NewController(ControllerConfig{Mode: ModeMinLatency, Kmax: 22})
	d2, err := c2.Step(vldSnapshot([]int{9, 12, 1}, 22, 0.6))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Action != ActionRebalance {
		t.Errorf("action = %v, want rebalance without threshold", d2.Action)
	}
}

func TestMinLatencyUnstableCurrentAllocationAlwaysRebalances(t *testing.T) {
	c, _ := NewController(ControllerConfig{Mode: ModeMinLatency, Kmax: 22, MinGain: 0.5})
	d, err := c.Step(vldSnapshot([]int{5, 16, 1}, 22, 3.0)) // extractor unstable
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionRebalance {
		t.Errorf("action = %v, want rebalance away from instability", d.Action)
	}
}

func TestMinResourceScaleOut(t *testing.T) {
	// Paper ExpA shape: pool Kmax=17 at (8:8:1), measured above Tmax;
	// DRS must provision the fifth machine (pool 22).
	c, err := NewController(ControllerConfig{
		Mode: ModeMinResource, Tmax: 1.1,
		SlotsPerMachine: 5, ReservedSlots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := vldSnapshot([]int{8, 8, 1}, 17, 1.35) // violating
	d, err := c.Step(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionScaleOut {
		t.Fatalf("action = %v (%s), want scale-out", d.Action, d.Reason)
	}
	if d.TargetKmax != 22 {
		t.Errorf("target pool = %d, want 22", d.TargetKmax)
	}
	if !slices.Equal(d.Target, []int{10, 11, 1}) {
		t.Errorf("target alloc = %v, want (10:11:1)", d.Target)
	}
	if d.Estimated > 1.1 {
		t.Errorf("estimated %g exceeds Tmax after scale-out", d.Estimated)
	}
}

// TestScaleOutReasonNamesTheCheck: Model.Violates fires on the measured
// sojourn or on Equation (3)'s estimate for the allocation in force, and a
// scale-out's reason quotes the one that fired — the estimate when the
// measurement is within Tmax, in words when an unstable operator leaves it
// unbounded.
func TestScaleOutReasonNamesTheCheck(t *testing.T) {
	for _, tc := range []struct {
		alloc    []int
		measured float64
		want     string
	}{
		{[]int{8, 8, 1}, 1.35, "measured E[T] 1350.0ms > Tmax 1100.0ms; growing pool 17 -> 22"},
		{[]int{8, 8, 1}, 0.9, "estimated E[T] 1138.0ms > Tmax 1100.0ms; growing pool 17 -> 22"},
		{[]int{6, 6, 1}, 0.9, "estimated E[T] unbounded > Tmax 1100.0ms; growing pool 17 -> 22"},
	} {
		c, err := NewController(ControllerConfig{
			Mode: ModeMinResource, Tmax: 1.1,
			SlotsPerMachine: 5, ReservedSlots: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		d, err := c.Step(vldSnapshot(tc.alloc, 17, tc.measured))
		if err != nil {
			t.Fatal(err)
		}
		if d.Action != ActionScaleOut || d.Reason != tc.want {
			t.Errorf("alloc %v measured %gs: %v %q, want scale-out %q", tc.alloc, tc.measured, d.Action, d.Reason, tc.want)
		}
	}
}

func TestMinResourceScaleIn(t *testing.T) {
	// Paper ExpB shape: loose Tmax, oversized pool; expect release of a
	// machine down to the 4-worker pool (17) at (8:8:1).
	c, err := NewController(ControllerConfig{
		Mode: ModeMinResource, Tmax: 1.4,
		SlotsPerMachine: 5, ReservedSlots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := vldSnapshot([]int{10, 11, 1}, 22, 1.0) // comfortably within 1.4s
	d, err := c.Step(s)
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionScaleIn {
		t.Fatalf("action = %v (%s), want scale-in", d.Action, d.Reason)
	}
	if d.TargetKmax != 17 {
		t.Errorf("target pool = %d, want 17", d.TargetKmax)
	}
	if !slices.Equal(d.Target, []int{8, 8, 1}) {
		t.Errorf("target alloc = %v, want (8:8:1)", d.Target)
	}
	if d.Estimated > 1.4 {
		t.Errorf("estimated %g breaks Tmax after scale-in", d.Estimated)
	}
}

func TestMinResourceHoldsWhenSized(t *testing.T) {
	c, err := NewController(ControllerConfig{
		Mode: ModeMinResource, Tmax: 1.1,
		SlotsPerMachine: 5, ReservedSlots: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Pool 22 at its optimum, within target, and the smaller pool (17)
	// cannot hold the target: no action.
	d, err := c.Step(vldSnapshot([]int{10, 11, 1}, 22, 1.0))
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionNone {
		t.Errorf("action = %v (%s), want none", d.Action, d.Reason)
	}
}

func TestMinResourceUnreachableTargetHolds(t *testing.T) {
	// Tmax below the service-time floor: no allocation can meet it, so the
	// controller must settle at the pool optimum instead of erroring or
	// thrashing.
	c, _ := NewController(ControllerConfig{Mode: ModeMinResource, Tmax: 0.1})
	d, err := c.Step(vldSnapshot([]int{10, 11, 1}, 22, 1.5))
	if err != nil {
		t.Fatalf("unreachable Tmax should not be a hard error: %v", err)
	}
	if d.Action != ActionNone {
		t.Errorf("action = %v (%s), want none at pool optimum", d.Action, d.Reason)
	}
	// From a non-optimal allocation it should still rebalance to the pool
	// optimum even though Tmax itself is hopeless.
	d, err = c.Step(vldSnapshot([]int{12, 9, 1}, 22, 1.5))
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionRebalance {
		t.Errorf("action = %v (%s), want rebalance toward pool optimum", d.Action, d.Reason)
	}
}

func TestMinResourceScaleInHysteresis(t *testing.T) {
	// Within Tmax, but the tightened target cannot fit a smaller pool: the
	// controller must hold rather than flap.
	c, _ := NewController(ControllerConfig{
		Mode: ModeMinResource, Tmax: 1.25, ScaleInSlack: 0.35,
		SlotsPerMachine: 5, ReservedSlots: 3,
	})
	d, err := c.Step(vldSnapshot([]int{10, 11, 1}, 22, 1.05))
	if err != nil {
		t.Fatal(err)
	}
	if d.Action != ActionNone {
		t.Errorf("action = %v (%s), want hold under hysteresis", d.Action, d.Reason)
	}
}

func TestPoolQuantization(t *testing.T) {
	c, _ := NewController(ControllerConfig{
		Mode: ModeMinResource, Tmax: 1,
		SlotsPerMachine: 5, ReservedSlots: 3,
	})
	tests := []struct{ need, want int }{
		// ceil((need+reserved)/slots)*slots - reserved, the paper's
		// 25-slot cluster arithmetic: 17 <-> 4 machines, 22 <-> 5.
		{17, 17}, {18, 22}, {21, 22}, {22, 22}, {12, 12}, {13, 17},
	}
	for _, tt := range tests {
		if got := c.poolFor(tt.need); got != tt.want {
			t.Errorf("poolFor(%d) = %d, want %d", tt.need, got, tt.want)
		}
	}
	// Without machine quantization the pool follows the need exactly.
	c2, _ := NewController(ControllerConfig{Mode: ModeMinResource, Tmax: 1})
	if got := c2.poolFor(19); got != 19 {
		t.Errorf("unquantized poolFor(19) = %d", got)
	}
}

func TestStepRejectsBadSnapshot(t *testing.T) {
	c, _ := NewController(ControllerConfig{Mode: ModeMinLatency, Kmax: 22})
	if _, err := c.Step(Snapshot{Lambda0: 0}); err == nil {
		t.Error("want error for empty snapshot")
	}
}

func TestModeAndActionStrings(t *testing.T) {
	if ModeMinLatency.String() != "min-latency" || ModeMinResource.String() != "min-resource" {
		t.Error("mode strings wrong")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode should still render")
	}
	for a, want := range map[Action]string{
		ActionNone: "none", ActionRebalance: "rebalance",
		ActionScaleOut: "scale-out", ActionScaleIn: "scale-in",
	} {
		if a.String() != want {
			t.Errorf("Action %d = %q, want %q", a, a.String(), want)
		}
	}
	if Action(99).String() == "" {
		t.Error("unknown action should still render")
	}
}
