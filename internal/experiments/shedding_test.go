package experiments

import (
	"strings"
	"testing"
)

func TestSheddingStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation run")
	}
	r := shedding(t)
	if len(r.Points) != 3 {
		t.Fatalf("runs = %d, want 3", len(r.Points))
	}
	overloaded, shed, drs := r.Points[0], r.Points[1], r.Points[2]
	if overloaded.DropRate != 0 {
		t.Errorf("unbounded queues dropped %f", overloaded.DropRate)
	}
	if overloaded.MeanMillis < 3000 {
		t.Errorf("overloaded mean %.0fms should blow up (queues grow for 10 min)", overloaded.MeanMillis)
	}
	if !r.SheddingLosesData {
		t.Errorf("shedding run did not exhibit the trade-off: %+v", shed)
	}
	if !r.DRSKeepsDataAndLatency {
		t.Errorf("DRS run failed its claim: %+v", drs)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "drop rate") {
		t.Error("printout incomplete")
	}
}
