package ingest

import (
	"fmt"
	"sync"
	"testing"

	"github.com/drs-repro/drs/internal/engine"
)

// TestShardedRegistryFirstContactRace hammers one id from many
// goroutines: every caller must get the same *Client back (the
// double-checked shard write), and concurrent registration of distinct
// ids must land each in exactly one shard slot.
func TestShardedRegistryFirstContactRace(t *testing.T) {
	g := NewGate(GateConfig{})
	defer g.Close()
	const workers = 16
	var wg sync.WaitGroup
	got := make([]*Client, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = g.Client("contested", 2, 0, 0)
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatal("racing first contacts returned distinct clients")
		}
	}
	if got[0].weight != 2 {
		t.Fatalf("winner weight %g, want 2", got[0].weight)
	}

	const perWorker = 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c := g.Client(fmt.Sprintf("w%d-c%d", w, i), 1, 0, 0)
				c.Offer(engine.Values{i})
			}
		}(w)
	}
	// Replans race the registrations — the snapshot path must tolerate
	// shards growing under it.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			g.Replan()
		}
	}()
	wg.Wait()
	<-done
	if n := g.clients.size(); n != workers*perWorker+1 {
		t.Fatalf("registry holds %d clients, want %d", n, workers*perWorker+1)
	}
	// Every registered client is visible to a snapshot exactly once.
	seen := make(map[*Client]bool)
	for _, c := range g.clients.snapshot(nil) {
		if seen[c] {
			t.Fatalf("client %s snapshotted twice", c.id)
		}
		seen[c] = true
	}
	if len(seen) != workers*perWorker+1 {
		t.Fatalf("snapshot saw %d clients, want %d", len(seen), workers*perWorker+1)
	}
}

// TestShardedRegistryPlanInheritance pins the overload-bypass guard
// across the shard refactor: a client registered mid-shed starts at the
// plan-wide fraction, not admit-all.
func TestShardedRegistryPlanInheritance(t *testing.T) {
	g := NewGate(GateConfig{})
	defer g.Close()
	g.admitFraction.store(0.25)
	c := g.Client("late", 1, 0, 0)
	if p := c.admitPermille.Load(); p != 250 {
		t.Fatalf("fresh client permille %d, want 250", p)
	}
}

// TestFNV1a pins the reference FNV-1a vectors so the shard picker never
// silently changes distribution.
func TestFNV1a(t *testing.T) {
	cases := map[string]uint64{
		"":    fnvOffset64,
		"a":   0xaf63dc4c8601ec8c,
		"foo": 0xdcb27518fed9d577,
	}
	for in, want := range cases {
		if got := fnv1a(in); got != want {
			t.Fatalf("fnv1a(%q) = %#x, want %#x", in, got, want)
		}
	}
}

// TestClientMapShardCount checks the sizing rule: a power of two within
// [8, 512].
func TestClientMapShardCount(t *testing.T) {
	m := newClientMap()
	n := len(m.shards)
	if n < 8 || n > 512 || n&(n-1) != 0 {
		t.Fatalf("shard count %d not a power of two in [8, 512]", n)
	}
	if m.mask != uint64(n-1) {
		t.Fatalf("mask %#x does not match %d shards", m.mask, n)
	}
}
