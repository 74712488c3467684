package ingest

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/core"
	"github.com/drs-repro/drs/internal/engine"
)

// flippingControl alternates between a roomy and a starved snapshot, so
// every Replan flips the shed thresholds under the offering clients.
type flippingControl struct {
	n atomic.Int64
}

func (c *flippingControl) LastSnapshot() (core.Snapshot, bool) {
	if c.n.Add(1)%2 == 0 {
		return twoStageSnap(3, 2, 8, 16), true // sustains ~14/s
	}
	return twoStageSnap(3, 2, 1, 2), true // starved: sheds nearly everything
}

// TestGateRace hammers the admit fast path from many concurrent clients
// while the replanning loop flips the shed thresholds and a consumer
// drains the ring — the production concurrency shape, run under -race in
// CI. Correctness invariant: every offer gets exactly one verdict and the
// books balance (offered = admitted + shed, and the ring receives exactly
// the admitted payloads).
func TestGateRace(t *testing.T) {
	g := NewGate(GateConfig{
		Tmax: 1.5, MaxSlots: 16,
		RingCapacity: 1 << 12, ReplanEvery: time.Millisecond,
	})
	g.SetControl(&flippingControl{})
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	const perClient = 2500
	var admitted atomic.Int64
	var wg sync.WaitGroup
	// Consumer: drain the ring concurrently, counting payloads.
	var drained atomic.Int64
	consumerDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(consumerDone)
		buf := make([]engine.Values, 0, 256)
		for {
			out, ok := g.Ring().PopBatch(stop, buf)
			if !ok {
				return
			}
			drained.Add(int64(len(out)))
		}
	}()
	payload := engine.Values{[]byte("r")}
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ids := []string{"a", "b", "c", "d"}
			c := g.Client(ids[i%len(ids)], float64(i%3+1), 0, 0)
			for j := 0; j < perClient; j++ {
				if v := c.Offer(payload); v.Admitted {
					admitted.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	g.Close() // stops the replan loop, closes the ring; consumer drains the tail
	<-consumerDone
	st := g.Stats()
	if st.Offered != clients*perClient {
		t.Fatalf("offered %d, want %d", st.Offered, clients*perClient)
	}
	if st.Admitted != admitted.Load() {
		t.Fatalf("gate admitted %d, clients saw %d", st.Admitted, admitted.Load())
	}
	if got := st.Admitted + st.ShedRateLimit + st.ShedOverload + st.ShedBacklog; got != st.Offered {
		t.Fatalf("books do not balance: %d admitted+shed of %d offered", got, st.Offered)
	}
	if drained.Load() != st.Admitted {
		t.Fatalf("ring delivered %d payloads, gate admitted %d", drained.Load(), st.Admitted)
	}
}
