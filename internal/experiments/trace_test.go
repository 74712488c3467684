package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"github.com/drs-repro/drs/internal/scenario"
)

// TestTraceArc runs the tracing golden arc end to end and locks the
// tentpole's contract: the deterministically sampled trace-id sets are
// bit-identical between the local and the 3-worker remote run, every
// sampled root yields exactly one complete trace, every trace telescopes
// exactly, and with full sampling the traces' summed sojourn equals the
// engine's own books to the nanosecond.
func TestTraceArc(t *testing.T) {
	r, err := RunTrace(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.SampledSetsIdentical {
		t.Fatalf("sampled sets differ: local %d ids, remote %d ids, expected %d",
			len(r.Local.SampledIDs), len(r.Remote.SampledIDs), r.Local.SampledExpected)
	}
	if !r.TelescopeExact {
		t.Fatalf("telescoping violations: local %d, remote %d, full %d",
			r.Local.TelescopeViolations, r.Remote.TelescopeViolations, r.Full.TelescopeViolations)
	}
	if !r.OneTracePerRoot {
		t.Fatalf("trace-per-root contract broken: local %+v/%+v, remote %+v/%+v, full %+v/%+v",
			r.Local.Assembly, r.Local.SpansDropped,
			r.Remote.Assembly, r.Remote.SpansDropped,
			r.Full.Assembly, r.Full.SpansDropped)
	}
	if !r.BooksReconcile {
		t.Fatalf("full-sampling trace sojourn %d ns != engine books %d ns",
			r.Full.SumSojournNS, r.Full.BookedSojournNS)
	}

	// The sampled runs must genuinely sample: a nonempty strict subset.
	if r.Local.SampledExpected <= 0 || int64(r.Local.SampledExpected) >= r.Local.Admitted {
		t.Fatalf("sampling degenerate: %d of %d roots sampled",
			r.Local.SampledExpected, r.Local.Admitted)
	}
	// Full sampling must trace every admitted root.
	if int64(r.Full.TracesCompleted) != r.Full.Admitted {
		t.Fatalf("full sampling completed %d traces for %d admitted roots",
			r.Full.TracesCompleted, r.Full.Admitted)
	}

	// Local traces never cross a machine boundary; every remote trace's
	// count hop lands on a worker, contributing exactly three
	// remote-measured segments (queue, service, shuttle), and the chain's
	// span counts are exact (enforced per trace).
	if r.Local.RemoteSegments != 0 || r.Local.SumShuttleNS != 0 {
		t.Fatalf("local run crossed the wire: %d remote segments, %d shuttle ns",
			r.Local.RemoteSegments, r.Local.SumShuttleNS)
	}
	if r.Remote.RemoteSegments != 3*r.Remote.TracesCompleted {
		t.Fatalf("remote run: %d remote segments for %d traces, want 3 each",
			r.Remote.RemoteSegments, r.Remote.TracesCompleted)
	}
	if r.Remote.TracesCompleted > 0 && r.Remote.SumShuttleNS <= 0 {
		t.Fatal("remote traces crossed the wire for free: zero total shuttle time")
	}
	if r.Local.SpanViolations+r.Remote.SpanViolations+r.Full.SpanViolations != 0 {
		t.Fatalf("span-count violations: local %d, remote %d, full %d",
			r.Local.SpanViolations, r.Remote.SpanViolations, r.Full.SpanViolations)
	}

	// The token bucket must have shed at the door — the arc replays the
	// chaos surges, not a trickle.
	var shed int64
	for _, n := range r.Shed {
		shed += n
	}
	if shed == 0 {
		t.Fatal("the chaos workload shed nothing at the bucket — no surge was replayed")
	}

	var buf bytes.Buffer
	r.Print(&buf)
	out := buf.String()
	for _, want := range []string{
		"sampled sets bit-identical (local == remote == expected): true",
		"every trace telescopes exactly (queue+service+shuttle == sojourn): true",
		"one complete trace per sampled root, nothing dropped/lost/pending: true",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestTracePrintShedInSpecOrder: the shed lines follow the scenario's
// tenant order, not the order of the map that counts them, so one seed
// renders the same text every run. Tenants without a shed line stay
// silent.
func TestTracePrintShedInSpecOrder(t *testing.T) {
	// Enough tenants that ranging over the map almost never happens to
	// visit them in spec order.
	names := []string{"gold", "bronze", "silver", "zinc", "amber", "iron", "tin", "lead", "jade", "onyx", "ruby"}
	var r TraceResult
	r.Shed = make(map[string]int64)
	for i, name := range names {
		r.Scenario.Tenants = append(r.Scenario.Tenants, scenario.TenantSpec{Name: name})
		if name != "zinc" {
			r.Shed[name] = int64(10 * (i + 1))
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	var got []string
	for _, line := range strings.Split(buf.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "  shed at the bucket: "); ok {
			got = append(got, rest)
		}
	}
	want := []string{"gold 10", "bronze 20", "silver 30", "amber 50", "iron 60",
		"tin 70", "lead 80", "jade 90", "onyx 100", "ruby 110"}
	if !slices.Equal(got, want) {
		t.Fatalf("shed lines %q, want %q", got, want)
	}
}
