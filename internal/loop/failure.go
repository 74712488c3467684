package loop

import (
	"log/slog"
	"sync"
	"time"
)

// failureRecord tracks repeated failures of one action kind.
type failureRecord struct {
	count   int
	lastErr error
	lastAt  time.Time
	// announced marks a suppression episode already reported to the caller;
	// it dies with the record, on success or expiry.
	announced bool
}

// failureTracker suppresses actions that keep failing: a rebalance the
// target refuses or a resize the provider refuses will usually fail the
// same way on the very next round, so after
// threshold failures inside the window the supervisor skips that action
// kind until the window expires. A success clears the record. Thread-safe;
// the caller supplies the clock so virtual-time drivers work.
type failureTracker struct {
	threshold int
	window    time.Duration
	logger    *slog.Logger

	mu      sync.Mutex
	records map[string]*failureRecord
}

func newFailureTracker(threshold int, window time.Duration, logger *slog.Logger) *failureTracker {
	return &failureTracker{
		threshold: threshold,
		window:    window,
		logger:    logger,
		records:   make(map[string]*failureRecord),
	}
}

// shouldSkip reports whether the action kind has failed enough times within
// the window to be suppressed, and whether this is the first time the
// ongoing episode says so — an episode is recorded once, not every round.
func (ft *failureTracker) shouldSkip(kind string, now time.Time) (skip, first bool) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	rec, ok := ft.records[kind]
	if !ok {
		return false, false
	}
	if now.Sub(rec.lastAt) > ft.window {
		delete(ft.records, kind) // stale: forget and let it try again
		return false, false
	}
	if rec.count < ft.threshold {
		return false, false
	}
	first, rec.announced = !rec.announced, true
	return true, first
}

// pruneLocked deletes every record whose window has fully elapsed. Without
// it, a kind that stops occurring (a one-off resize refusal, a shrink kind
// that never fails again) would keep its record alive for the life of the
// daemon; the sweep is O(kinds), and kinds are a small closed set, so it
// runs on every recordFailure.
func (ft *failureTracker) pruneLocked(now time.Time) {
	for kind, rec := range ft.records {
		if now.Sub(rec.lastAt) > ft.window {
			delete(ft.records, kind)
		}
	}
}

// recordFailure increments the failure counter for an action kind.
func (ft *failureTracker) recordFailure(kind string, err error, now time.Time) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	ft.pruneLocked(now)
	rec, ok := ft.records[kind]
	if !ok {
		rec = &failureRecord{}
		ft.records[kind] = rec
	}
	rec.count++
	rec.lastErr = err
	rec.lastAt = now
	if rec.count == ft.threshold {
		// The error travels as a value (not a string) so slog handlers
		// can classify it with errors.Is.
		ft.logger.Warn("action suppressed after repeated failures",
			slog.String("action", kind),
			slog.Int("failures", rec.count),
			slog.Any("err", rec.lastErr),
			slog.Duration("window", ft.window),
		)
	}
}

// recordSuccess clears the failure record for an action kind.
func (ft *failureTracker) recordSuccess(kind string) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	delete(ft.records, kind)
}
