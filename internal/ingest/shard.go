package ingest

import (
	"runtime"
	"sync"
)

// The client registry is the one shared structure every request touches:
// a listener resolves its client id to a *Client before the zero-alloc
// Offer fast path even starts. A single map behind a single mutex caps
// the whole front door at one core the moment the id space gets large
// (the millions-of-users profile: ≥1e6 distinct ids, each a token
// bucket), so the registry is sharded — FNV-1a over the id picks one of a
// power-of-two set of RWMutex-guarded maps sized to the core count.
// Lookups of existing clients take one shard's read lock; only first
// contact takes a write lock, and only on that shard. Replanning still
// serializes under the gate mutex and snapshots shard by shard — the slow
// path kept simple, the hot path spread across cores.
//
// The registry holds live clients, not every id ever seen: ids are the
// client's own claim, so one that rotates them would otherwise grow the
// server without bound. A lookup takes a hold on the client it returns,
// and the replan round evicts a client that is indistinguishable from a
// fresh one — no caller holds it, it offered nothing for a whole round and
// its token bucket has refilled to its burst (Gate.evictIdle). So the
// registry holds at most the held clients plus the ids offered within one
// ReplanEvery, which the request rate already bounds.

// fnvOffset64 and fnvPrime64 are the FNV-1a 64-bit parameters.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a hashes a client id without allocating.
func fnv1a(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// clientShard is one lock-striped slice of the registry.
type clientShard struct {
	mu      sync.RWMutex
	clients map[string]*Client
}

// clientMap is the sharded client registry.
type clientMap struct {
	shards []clientShard
	mask   uint64
}

// newClientMap sizes the registry at the next power of two above
// 4×GOMAXPROCS (at least 8, at most 512): enough stripes that
// simultaneous first-contact bursts rarely collide, few enough that a
// replan snapshot stays cheap.
func newClientMap() *clientMap {
	n := 4 * runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	if n > 512 {
		n = 512
	}
	size := 1
	for size < n {
		size <<= 1
	}
	m := &clientMap{shards: make([]clientShard, size), mask: uint64(size - 1)}
	for i := range m.shards {
		m.shards[i].clients = make(map[string]*Client)
	}
	return m
}

// shard picks the stripe owning id.
func (m *clientMap) shard(id string) *clientShard {
	return &m.shards[fnv1a(id)&m.mask]
}

// get returns the registered client, held, read-locking only its own
// shard. The hold is taken under the lock, so evict — which deletes under
// the write lock — never removes a client a lookup is returning.
func (m *clientMap) get(id string) (*Client, bool) {
	s := m.shard(id)
	s.mu.RLock()
	c, ok := s.clients[id]
	if ok {
		c.holds.Add(1)
	}
	s.mu.RUnlock()
	return c, ok
}

// getOrCreate returns the registered client or installs the one make
// builds, held either way. The double-checked write lock means a racing
// pair of first contacts agree on a single *Client; make runs outside any
// gate-wide lock, so it must not touch other shards.
func (m *clientMap) getOrCreate(id string, make func() *Client) *Client {
	if c, ok := m.get(id); ok {
		return c
	}
	s := m.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.clients[id]; ok {
		c.holds.Add(1)
		return c
	}
	c := make()
	c.holds.Store(1)
	s.clients[id] = c
	return c
}

// evict deletes c if, under its shard's write lock — which excludes every
// lookup that could take a hold — no caller holds it, it has offered
// nothing since the replan round last read its books, and its id still
// maps to it.
func (m *clientMap) evict(c *Client) bool {
	s := m.shard(c.id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.holds.Load() != 0 || c.offered.Load()-c.rlShed.Load() != c.lastOffered || s.clients[c.id] != c {
		return false
	}
	delete(s.clients, c.id)
	return true
}

// snapshot appends every registered client to dst (shard order; callers
// needing determinism sort downstream, which admitPermilles does).
func (m *clientMap) snapshot(dst []*Client) []*Client {
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		for _, c := range s.clients {
			dst = append(dst, c)
		}
		s.mu.RUnlock()
	}
	return dst
}

// size counts registered clients across shards.
func (m *clientMap) size() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.clients)
		s.mu.RUnlock()
	}
	return n
}
