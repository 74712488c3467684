package main

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/drs-repro/drs/internal/ingest"
)

// gateServer stands up the real HTTP front door on an httptest listener.
func gateServer(t *testing.T) (*ingest.Gate, *httptest.Server) {
	t.Helper()
	g := ingest.NewGate(ingest.GateConfig{})
	t.Cleanup(func() { g.Close() })
	srv := httptest.NewServer(ingest.Handler(g, ingest.ListenerConfig{}))
	t.Cleanup(srv.Close)
	return g, srv
}

// TestFlagValidation pins the CLI contract: exactly one transport, and
// positive knobs.
func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-url", "http://x", "-tcp", "y:1"},
		{"-url", "http://x", "-rate", "0"},
		{"-url", "http://x", "-trace", "spec.json", "-speedup", "0"},
		{"-url", "http://x", "-trace", "no-such-file.json"},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestFlatLoadAgainstGate drives the classic fixed-rate mode at the real
// handler and expects a clean exit: every record got a verdict.
func TestFlatLoadAgainstGate(t *testing.T) {
	_, srv := gateServer(t)
	err := run([]string{"-url", srv.URL + "/ingest",
		"-clients", "2", "-rate", "200", "-duration", "0.2"})
	if err != nil {
		t.Fatalf("flat load: %v", err)
	}
}

// TestTraceReplayAgainstGate replays a small scenario spec — two tenants,
// a flash crowd and a correlated surge — against the live gate at high
// speedup: the same seeded schedule the simulator would replay, down the
// real HTTP admission path.
func TestTraceReplayAgainstGate(t *testing.T) {
	_, srv := gateServer(t)
	spec := `{
		"name": "mini", "seed": 7, "duration_seconds": 4,
		"tenants": [
			{"name": "gold", "weight": 3, "base_rate": 40,
			 "diurnal": {"period_seconds": 4, "amplitude": 0.5}},
			{"name": "bronze", "base_rate": 25,
			 "flash_crowds": [{"from_seconds": 1, "until_seconds": 3, "factor": 4}]}
		],
		"surges": [{"tenants": ["gold", "bronze"], "from_seconds": 2,
		            "until_seconds": 3, "factor": 2, "jitter_seconds": 0.5}]
	}`
	path := filepath.Join(t.TempDir(), "mini.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-url", srv.URL + "/ingest",
		"-trace", path, "-speedup", "40"})
	if err != nil {
		t.Fatalf("trace replay: %v", err)
	}
}

// TestTraceHorizonCap checks that an explicit -duration truncates the
// replayed scenario horizon rather than being ignored.
func TestTraceHorizonCap(t *testing.T) {
	_, srv := gateServer(t)
	spec := `{"name": "long", "seed": 1, "duration_seconds": 3600,
		"tenants": [{"name": "a", "base_rate": 50}]}`
	path := filepath.Join(t.TempDir(), "long.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-url", srv.URL + "/ingest",
			"-trace", path, "-speedup", "20", "-duration", "2"})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("capped trace replay: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("capped replay did not finish — -duration cap ignored")
	}
}
