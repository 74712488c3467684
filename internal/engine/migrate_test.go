package engine

import (
	"testing"
	"testing/quick"
	"time"
)

func countsOf(assign []int, n int) []int {
	counts := make([]int, n)
	for _, e := range assign {
		counts[e]++
	}
	return counts
}

func TestPlanAssignmentBalanced(t *testing.T) {
	tests := []struct {
		name       string
		tasks      int
		nOld, nNew int
	}{
		{"grow 2 to 5", 16, 2, 5},
		{"shrink 5 to 2", 16, 5, 2},
		{"same count", 16, 4, 4},
		{"one executor", 7, 3, 1},
		{"tasks equal executors", 6, 2, 6},
		{"indivisible", 10, 3, 4},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			old := make([]int, tt.tasks)
			for i := range old {
				old[i] = i % tt.nOld
			}
			assign, moved := planAssignment(old, tt.nOld, tt.nNew)
			counts := countsOf(assign, tt.nNew)
			lo, hi := tt.tasks/tt.nNew, (tt.tasks+tt.nNew-1)/tt.nNew
			for e, c := range counts {
				if c < lo || c > hi {
					t.Errorf("executor %d holds %d tasks, want %d..%d", e, c, lo, hi)
				}
			}
			// moved must agree with a direct diff against surviving executors.
			want := 0
			for task, e := range assign {
				if e != old[task] {
					want++
				}
			}
			if moved != want {
				t.Errorf("moved = %d, diff says %d", moved, want)
			}
		})
	}
}

func TestPlanAssignmentMinimal(t *testing.T) {
	// Growing n by one from a balanced state must move exactly the number
	// of tasks the new executor's quota demands — no collateral shuffling.
	const tasks = 12
	old := make([]int, tasks)
	for i := range old {
		old[i] = i % 3 // 4 tasks each on executors 0..2
	}
	assign, moved := planAssignment(old, 3, 4)
	if moved != 3 { // new quotas: 3,3,3,3 -> one task leaves each old executor
		t.Errorf("grow 3->4 moved %d tasks, want 3", moved)
	}
	counts := countsOf(assign, 4)
	for e, c := range counts {
		if c != 3 {
			t.Errorf("executor %d holds %d, want 3", e, c)
		}
	}
	// Shrinking back must only move the retired executor's tasks.
	assign2, moved2 := planAssignment(assign, 4, 3)
	if moved2 != 3 {
		t.Errorf("shrink 4->3 moved %d tasks, want 3 (the retired executor's)", moved2)
	}
	if got := countsOf(assign2, 3); got[0] != 4 || got[1] != 4 || got[2] != 4 {
		t.Errorf("post-shrink counts = %v", got)
	}
}

func TestPlanAssignmentBeatsNaive(t *testing.T) {
	// Property: the migration-aware plan never moves more tasks than the
	// naive modulo plan, over random previous assignments.
	f := func(tasksSeed, oldSeed, newSeed uint8) bool {
		tasks := 1 + int(tasksSeed%64)
		nOld := 1 + int(oldSeed%8)
		nNew := 1 + int(newSeed%8)
		if nOld > tasks {
			nOld = tasks
		}
		if nNew > tasks {
			nNew = tasks
		}
		old := make([]int, tasks)
		for i := range old {
			old[i] = i % nOld
		}
		_, planMoved := planAssignment(old, nOld, nNew)
		_, naiveMoved := naiveAssignment(old, nNew)
		return planMoved <= naiveMoved
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestPlanAssignmentNoChangeMeansNoMoves(t *testing.T) {
	old := []int{0, 1, 2, 0, 1, 2}
	_, moved := planAssignment(old, 3, 3)
	if moved != 0 {
		t.Errorf("identical executor count moved %d tasks, want 0", moved)
	}
}

// TestRebalanceReportsMoves: a live Rebalance installs the migration-aware
// plan — the moves are read off the bolt's route tables before and after.
func TestRebalanceReportsMoves(t *testing.T) {
	_, factory := sharedCollector()
	topo, err := NewTopology().
		Spout("src", 1, func(int) Spout { return &pacedSpout{period: time.Millisecond} }).
		Bolt("sink", 12, factory).
		Shuffle("src", "sink").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	run := startTopo(t, topo, map[string]int{"sink": 3})
	waitCompleted(t, run, 20)
	rebalance := func(n int) (moved int) {
		t.Helper()
		before := run.bolts[0].route.Load().assign
		if err := run.Rebalance(map[string]int{"sink": n}); err != nil {
			t.Fatal(err)
		}
		for task, e := range run.bolts[0].route.Load().assign {
			if e != before[task] {
				moved++
			}
		}
		return moved
	}
	// 12 tasks, 3 -> 4 executors: quotas 4,4,4 -> 3,3,3,3; exactly 3 move.
	if got := rebalance(4); got != 3 {
		t.Errorf("moved = %d tasks, want 3 (migration-aware)", got)
	}
	// A no-op rebalance must not move anything.
	if got := rebalance(4); got != 0 {
		t.Errorf("no-op rebalance moved %d tasks", got)
	}
}
