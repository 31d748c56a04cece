# CI and humans run the same commands: .github/workflows/ci.yml only calls
# these targets.
GO ?= go
BENCH_OUT ?= BENCH_sweep.json
BENCH_TRIALS ?= 5
# The committed baseline the bench job gates against; re-record it with
# `make bench-baseline` when a PR changes performance on purpose.
BASELINE ?= BENCH_baseline.json
# Every report stamps a machine-calibration run (benchfmt.CalibrationUnit)
# and -bench-compare divides the hardware difference out of every ratio,
# so the tolerance only has to absorb run-to-run noise, not the gap
# between the baseline recorder and the CI runner. 30% catches real
# slowdowns while staying above timer jitter on short workloads; see
# docs/OPERATIONS.md ("The benchmark gate").
TOLERANCE ?= 1.30
COVER_OUT ?= coverage.out
# Per-target budget of the fuzz smoke run (beyond the seeded corpus, which
# every plain `go test` run already replays).
FUZZTIME ?= 30s
# Extra flags for the stress-check gate. The scale defaults live in
# experiments.DefaultStress (24 shards / 24k events, above the 20/20k
# acceptance floor its tests assert) and flow into mfpsim's flag defaults.
STRESS_FLAGS ?=
# Extra flags for the crash-check gate (the durability acceptance run).
CRASH_FLAGS ?=
# The seeded route sweep the route-check gate runs twice (at different
# worker counts) and byte-compares.
ROUTE_FLAGS ?= -mesh 50 -faults 25,50,100 -trials 3 -route-messages 200

.PHONY: all build test race cover fuzz stress-check crash-check route-check exhaustive-check bench bench-json bench-check bench-baseline docs-check lint staticcheck mfplint govulncheck tidy-check fmt clean

all: lint build test

# Compiles every package in the module; ./... includes every command under
# ./cmd/... and every runnable example under ./examples/..., so example rot
# fails CI, not the next reader.
build:
	$(GO) build ./...

# -shuffle=on randomizes test (and suite) execution order so inter-test
# state dependencies fail loudly; the seed is printed for replay.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# Race-enabled tests with a coverage profile; prints per-package coverage
# (CI puts this in the job summary and archives $(COVER_OUT) per PR). One
# run gives both signals — atomic is the required covermode under -race.
cover:
	$(GO) test -race -shuffle=on -coverprofile=$(COVER_OUT) -covermode=atomic ./...
	$(GO) tool cover -func=$(COVER_OUT) | tail -n 1

# Native-fuzzing smoke: each target mutates for $(FUZZTIME) beyond its
# seeded corpus. `go test -fuzz` accepts one target per invocation, hence
# one line per target.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEvents$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzApply$$' -fuzztime $(FUZZTIME) ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzHandleEvents$$' -fuzztime $(FUZZTIME) ./cmd/mfpd
	$(GO) test -run '^$$' -fuzz '^FuzzPolygonsReply$$' -fuzztime $(FUZZTIME) ./cmd/mfpd
	$(GO) test -run '^$$' -fuzz '^FuzzRouteReply$$' -fuzztime $(FUZZTIME) ./cmd/mfpd
	$(GO) test -run '^$$' -fuzz '^FuzzRouteRequest$$' -fuzztime $(FUZZTIME) ./cmd/mfpd
	$(GO) test -run '^$$' -fuzz '^FuzzWALDecode$$' -fuzztime $(FUZZTIME) ./internal/wal

# The shard layer's acceptance gate, mirroring bench-check: a race-enabled
# multi-shard stress run (>= 20 shards, >= 20k events) differentially
# verified against core.Construct at every checkpoint; any divergence or
# data race exits non-zero. CI runs this on every PR.
stress-check:
	$(GO) run -race ./cmd/mfpsim -stress $(STRESS_FLAGS)

# The durability acceptance gate: the race-enabled stress scenario run
# durably with seeded kill/recover cycles and torn-tail injection, under a
# zero-acknowledged-events-lost gate — twice, at different worker counts,
# byte-comparing stdout: recovery must reconstruct exactly the state a
# crash-free run produces, independent of scheduling. CI runs this on
# every PR.
crash-check:
	$(GO) run -race ./cmd/mfpsim -stress -stress-crash -stress-clients 1 $(CRASH_FLAGS) > crash-a.txt
	$(GO) run -race ./cmd/mfpsim -stress -stress-crash -stress-clients 7 $(CRASH_FLAGS) > crash-b.txt
	cmp crash-a.txt crash-b.txt
	@cat crash-a.txt

# The routing plane's gate: a routesim smoke run over every fault-region
# model, then the seeded RouteSweep at two worker counts byte-compared —
# the route tables must be identical at any pool size. CI runs this on
# every PR.
route-check:
	$(GO) run ./cmd/routesim -mesh 32 -faults 40 -messages 2000
	$(GO) run ./cmd/mfpsim -route $(ROUTE_FLAGS) -workers 1 > route-sweep-a.txt
	$(GO) run ./cmd/mfpsim -route $(ROUTE_FLAGS) -workers 7 > route-sweep-b.txt
	cmp route-sweep-a.txt route-sweep-b.txt
	@cat route-sweep-a.txt

# The engine's bounded-exhaustive gate: the Gray-code walk of
# internal/kernel/exhaustive_test.go over every fault set of a 20-node 2-D
# mesh (5x4, about a million states) and an 18-node 3-D mesh (3x3x2), each
# state checked against the from-scratch constructions. Tier-1 runs the
# same walk at 16 and 12 nodes. Then the route census of
# internal/routing/census_test.go: all-pairs routes around every fault set
# of a 4x4 box in an 8x8 mesh, under minimum faulty polygons and faulty
# blocks, with the channel-dependency-graph cycle counts pinned (tier-1
# takes the 3x3 box). CI runs this on every PR.
exhaustive-check:
	$(GO) test -count=1 -timeout 30m -run '^TestExhaustive' ./internal/kernel -args -exhaustive-large
	$(GO) test -count=1 -timeout 30m -run '^TestRouteCensus$$' -v ./internal/routing -args -exhaustive-large

# One iteration of every Go benchmark, no unit tests — the CI smoke run.
bench:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# One-worker timing sweep at GOMAXPROCS=1 (mfpsim pins it); writes
# $(BENCH_OUT) for archival.
bench-json:
	$(GO) run ./cmd/mfpsim -bench-json -trials $(BENCH_TRIALS) -bench-out $(BENCH_OUT)

# Same sweep, diffed against the committed baseline (or BASELINE=other.json);
# exits non-zero on regressions past TOLERANCE. CI runs this on every PR.
bench-check:
	$(GO) run ./cmd/mfpsim -bench-json -trials $(BENCH_TRIALS) -bench-out $(BENCH_OUT) -bench-compare $(BASELINE) -bench-tolerance $(TOLERANCE)

# Re-record the committed baseline after an intentional performance change:
#   make bench-baseline && git add BENCH_baseline.json
bench-baseline:
	$(GO) run ./cmd/mfpsim -bench-json -trials $(BENCH_TRIALS) -bench-out $(BASELINE)

# Documentation gate: every relative markdown link and anchor must resolve
# (cmd/docscheck), and docs/METRICS.md must list exactly the metric
# families the process exports — TestMetricsDocumented checks both
# directions, so adding or renaming a metric without documenting it fails
# CI, as does documenting a metric that no longer exists.
docs-check:
	$(GO) run ./cmd/docscheck
	$(GO) test -run '^TestMetricsDocumented$$' ./cmd/mfpd

# gofmt gate + go vet always; staticcheck when installed (the dedicated CI
# job installs it and runs `make staticcheck`, which does not skip); mfplint
# (the repo's own analyzers, see internal/lint) when its build succeeds —
# the same skip-with-notice shape, so a toolchain too old to build it does
# not wedge local `make lint` while the dedicated CI job stays strict.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "staticcheck not installed; skipped (CI enforces it via make staticcheck)"; fi
	@if $(GO) build -o /dev/null ./cmd/mfplint 2>/dev/null; then echo "$(GO) run ./cmd/mfplint ./..."; $(GO) run ./cmd/mfplint ./...; \
	else echo "mfplint build unavailable; skipped (CI enforces it via make mfplint)"; fi

staticcheck:
	staticcheck ./...

# The repo's custom analyzers (snapshot immutability, scratch-pool escape,
# bounded metric labels, error envelope, goroutine ownership), run strictly.
# mfplint is a standalone driver rather than a `go vet -vettool` plugin
# because the module is dependency-free: the vettool protocol needs
# golang.org/x/tools' unitchecker, while internal/lint runs on the standard
# library alone.
mfplint:
	$(GO) run ./cmd/mfplint ./...

# Known-vulnerability scan of the module and its (std-only) dependency
# graph; the CI job installs a pinned govulncheck and runs this strictly.
govulncheck:
	govulncheck ./...

# Module-hygiene gate: `go mod tidy` must be a no-op (a drifted go.mod or
# go.sum means a dependency was added or dropped without tidying). CI's
# cleanliness job runs this next to the gofmt check in `make lint`.
tidy-check:
	$(GO) mod tidy
	git diff --exit-code -- go.mod go.sum

fmt:
	gofmt -w .

clean:
	rm -f $(BENCH_OUT) $(COVER_OUT) route-sweep-a.txt route-sweep-b.txt crash-a.txt crash-b.txt
