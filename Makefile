# Development targets for the DRS reproduction.

GO ?= go

.PHONY: test race bench-check loc build vet checkdoc test-fuzz serve-smoke restart-smoke worker-smoke examples-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Exported-surface linter: package comments + docs on every exported decl,
# and no exported package-level name that no non-test file names.
checkdoc:
	$(GO) run ./internal/tools/checkdoc ./...

test:
	$(GO) test ./...

# The whole module under the race detector, exactly as in CI (~3 min;
# internal/experiments is 150 s of it). The concurrent packages carry
# dedicated storms — engine queues and pooled trees, the scheduler's
# no-double-lease property test, the ingest gate's sharded registry, the
# group-commit WAL's appenders, the worker tier's equivalence harness, and
# the obs pipeline's emitters-vs-drainer-vs-scrape-vs-knob storms for both
# instantiations — but nothing is exempt.
race:
	$(GO) test -race ./...

# The exported-API tripwire: benchmark/ is its own module compiled against
# this one, so a changed exported name, config field or signature it uses
# fails here before the benchmark driver finds out.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Code lines (no blanks, no comment-only lines, no tests, no benchmark/)
# per package and in total — the count simplicity PRs are judged by. The
# benchmark module (non-test) is a row of its own below the root total,
# and the last row sums both modules.
loc_files = find $(1) -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*'
loc_lines = xargs cat | grep -vcE '^[[:space:]]*(//.*)?$$'
loc_count = $(call loc_files,$(1)) -not -path './benchmark/*' | $(loc_lines)
loc:
	@for p in $$($(GO) list -f '{{.Dir}}' ./... | sed "s|^$$PWD/||" | grep -v "^$$PWD$$"); do \
		printf '%6d  %s\n' "$$($(call loc_count,$$p))" "$$p"; \
	done
	@printf '%6d  . (root package)\n' "$$($(call loc_count,. -maxdepth 1))"
	@printf '%6d  total\n' "$$($(call loc_count,.))"
	@printf '%6d  benchmark/ (own module)\n' "$$($(call loc_files,benchmark) | $(loc_lines))"
	@printf '%6d  both modules\n' "$$($(call loc_files,.) | $(loc_lines))"

# Native fuzzing smoke: a short budget per target keeps it CI-sized; raise
# FUZZTIME locally for real hunting. Seed corpora live in each package's
# testdata/fuzz directory; FuzzWALSegment adds inline seeds (segmentSeeds)
# whose frame header and torn tail straddle the scan's 64 KiB read buffer.
FUZZTIME ?= 10s
test-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParseTopology -fuzztime $(FUZZTIME) ./internal/topology
	$(GO) test -run '^$$' -fuzz FuzzParseScenario -fuzztime $(FUZZTIME) ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzWALSegment -fuzztime $(FUZZTIME) ./internal/wal
	$(GO) test -run '^$$' -fuzz FuzzWorkerFrame -fuzztime $(FUZZTIME) ./internal/worker
	$(GO) test -run '^$$' -fuzz FuzzDecisionRecord -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzTraceRecord -fuzztime $(FUZZTIME) ./internal/obs
	$(GO) test -run '^$$' -fuzz FuzzIngestStream -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run '^$$' -fuzz FuzzNDJSONSplit -fuzztime $(FUZZTIME) ./internal/ingest

# Boots `drsctl serve` on a loopback port, pushes a client burst through
# the HTTP front door and asserts a 2xx/429 split (admitted + backpressure).
serve-smoke:
	sh scripts/serve_smoke.sh

# Boots `drsctl serve` with a WAL, kill -9s it mid-ingest, restarts over
# the same directory and asserts zero admitted loss: recovery replays
# every ACKed-but-unprocessed record and the books balance.
restart-smoke:
	sh scripts/restart_smoke.sh

# Boots `drsctl serve` with a worker tier plus two real `drsctl worker`
# processes, kill -9s one worker mid-surge, and asserts live-process churn
# invariants: both joins gate the front door, the death surfaces within
# the lease, executors heal in-process, no admitted record is lost.
worker-smoke:
	sh scripts/worker_smoke.sh

# The one live example (~55 s of wall-clock sleeps, so opt-in and not in
# CI): examples/autoscale is self-checking — it exits 1 unless the loop
# scaled out under the load step and ended converged under Tmax.
examples-smoke:
	$(GO) run ./examples/autoscale
