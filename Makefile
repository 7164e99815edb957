# Build/test/docs pipeline for the reproduction. The generated
# EXPERIMENTS.md is committed; `make docs` regenerates it and `make
# test` verifies it is fresh. End-to-end performance is measured by
# `bash benchmark/run.sh` (benchmark/README.md), not from here.

GO ?= go

.PHONY: all build test race bench-batch bench-check serve docs clean

all: build test

build:
	$(GO) build ./...

# Tier-1 suite plus a race-detector pass over the whole tree (kept in
# lockstep with .github/workflows/ci.yml).
test:
	$(GO) test ./...
	$(GO) test -race ./...

race:
	$(GO) test -race ./...

# Compare the engines on one capture group (direct execution vs
# single-config replay vs one batch pass), time a daemon's classify
# miss (one-configuration calls on a warm Replayer, by path) and a wide
# group swept by the work queue at 1/2 workers, then run the perf gates that CI enforces: a
# batch pass must never be slower than replaying the group one
# configuration at a time, and with GOMAXPROCS>1 a two-worker sweep of
# one wide group must finish within 0.75x the one-worker time
# (docs/PERF.md).
bench-batch:
	$(GO) test -run=NONE -bench='BenchmarkGroup(Direct|SingleReplay|BatchReplay)$$|BenchmarkReplayMiss' -benchmem ./internal/refstream
	$(GO) test -run=NONE -bench=BenchmarkSweepWideGroup -benchmem -cpu=1,2 .
	REFSTREAM_PERF_GATE=1 $(GO) test -run 'TestBatchNoSlowerThanSingleReplay|TestWideSweepScalesToTwoWorkers' -count=1 -v ./internal/refstream ./internal/sweep

# Vet and test the benchmark module (benchmark/ has its own go.mod, so
# ./... does not reach it): it compiles against exported names of
# internal/... that it freezes, and this is where breaking one shows.
bench-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# Run the classification daemon on its default address.
serve:
	$(GO) run ./cmd/lfksimd

# Regenerate EXPERIMENTS.md from the experiment outcomes.
docs:
	$(GO) run ./cmd/lfksim -docs -o EXPERIMENTS.md

clean:
	$(GO) clean ./...
