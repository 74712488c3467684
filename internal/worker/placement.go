package worker

import (
	"sort"

	"github.com/drs-repro/drs/internal/engine"
)

// Placement application: a slot placement (machine id → slot count)
// becomes real executor bindings. The live caller, node, passes
// SlotsPerMachine per live worker and leaves the remainder local. Slots
// are enumerated deterministically — bolts in declaration order, executors
// in index order — and machines fill in ascending id order, so the same
// placement always produces the same binding and re-applying after churn
// only moves the executors whose machine actually changed (BindExecutor is
// idempotent on unchanged bindings).

// BindingPlan is the resolved slot → machine assignment of one placement
// application.
type BindingPlan struct {
	// Bound counts executors bound per machine id (the local machine
	// included, bound as in-process goroutines).
	Bound map[int]int
	// Local counts executors that fell back to local goroutines because
	// their machine has no live worker (or the placement ran short).
	Local int
	// Errors counts BindExecutor refusals (stopped run).
	Errors int
}

// ApplyPlacement binds a run's executors per a slot placement.
// alloc is the run's current executor allocation (bolt → count, as
// Run.Allocation returns); placement maps machine id → slot count;
// localMachine is the machine embodied by the serve process itself (its
// slots stay in-process); remote resolves a machine id to its live
// transport, nil meaning "bind local".
func ApplyPlacement(run *engine.Run, alloc map[string]int, placement map[int]int, localMachine int, remote func(machine int) engine.RemoteExecutor) BindingPlan {
	plan := BindingPlan{Bound: make(map[int]int, len(placement))}
	machines := make([]int, 0, len(placement))
	for id := range placement {
		machines = append(machines, id)
	}
	sort.Ints(machines)
	mi, left := 0, 0
	if len(machines) > 0 {
		left = placement[machines[0]]
	}
	for _, bolt := range run.BoltNames() {
		for exec := 0; exec < alloc[bolt]; exec++ {
			// Advance to the next machine with slots remaining.
			for mi < len(machines) && left == 0 {
				mi++
				if mi < len(machines) {
					left = placement[machines[mi]]
				}
			}
			var dest engine.RemoteExecutor
			machine := localMachine
			if mi < len(machines) {
				machine = machines[mi]
				left--
				if machine != localMachine && remote != nil {
					dest = remote(machine)
				}
			}
			if dest == nil && machine != localMachine {
				// No live worker behind the machine: degrade to local.
				machine = localMachine
			}
			if err := run.BindExecutor(bolt, exec, dest); err != nil {
				plan.Errors++
				continue
			}
			plan.Bound[machine]++
			if machine == localMachine {
				plan.Local++
			}
		}
	}
	return plan
}
