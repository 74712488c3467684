package ingest

import (
	"sync"
	"time"
)

// tokenBucket is a per-client rate limiter: Rate tokens/s refill a bucket
// of Burst capacity, and each offered record spends one. It is the
// per-client contract enforcement layer — independent of the cluster-level
// admission controller, which sheds by *aggregate* capacity. Zero-alloc
// and mutex-guarded; contention is per client, so the lock is effectively
// uncontended for well-behaved clients.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second; <= 0 disables the limiter
	burst  float64
	tokens float64
	last   int64 // unix nanos of the last refill
	primed bool  // last holds a real reading
}

// newTokenBucket builds a bucket starting full. burst < 1 is raised to 1
// (a bucket that can never hold a whole token admits nothing).
func newTokenBucket(rate float64, burst int) tokenBucket {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	return tokenBucket{rate: rate, burst: b, tokens: b}
}

// take spends one token if available. When the bucket is empty it returns
// false and how long the caller should wait for the next token — the
// retry-after hint propagated to the client.
func (t *tokenBucket) take(nowNanos int64) (ok bool, retryAfter time.Duration) {
	if t.rate <= 0 {
		return true, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.primed {
		if dt := float64(nowNanos-t.last) / float64(time.Second); dt > 0 {
			t.tokens += dt * t.rate
			if t.tokens > t.burst {
				t.tokens = t.burst
			}
		}
	}
	t.last, t.primed = nowNanos, true
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	return false, time.Duration((1 - t.tokens) / t.rate * float64(time.Second))
}

// full reports whether the bucket, refilled to nowNanos, holds its whole
// burst — the state newTokenBucket builds — or limits nothing.
func (t *tokenBucket) full(nowNanos int64) bool {
	if t.rate <= 0 {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.primed || t.tokens+float64(nowNanos-t.last)/float64(time.Second)*t.rate >= t.burst
}
