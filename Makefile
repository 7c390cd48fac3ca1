# Development targets for the cqp reproduction.

GO ?= go

.PHONY: all build test race flake chaos chaos-cluster fuzz cover bench vet lint fmt examples clean

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Repeated race runs over the concurrent packages. -count defeats the
# test cache, which would otherwise hide an intermittent failure behind
# one cached pass. CI runs the same packages at -count=5.
flake:
	$(GO) test -race -count=50 ./internal/cluster/ ./internal/shard/ ./internal/server/ ./internal/client/

# The seeded fault-injection convergence test (see DESIGN.md, "Failure
# model & recovery").
chaos:
	$(GO) test -race -run TestChaosConvergence -count=1 -v ./internal/server/

# The multi-process cluster's fault drills under the race detector:
# differential bit-identity against the in-process engine, scripted
# worker murders (including real SIGKILLed processes), and seeded
# faultnet storms, all required to heal completely (see DESIGN.md,
# "Cluster failure model").
chaos-cluster:
	$(GO) test -race -count=1 -run 'TestDifferential|TestChaos|TestExec' -v ./internal/cluster/

# Short fuzz passes over the wire protocol: hostile input to the
# decoder, then structured messages through the encode→decode→encode
# round trip.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/wire/

# Coverage with a committed floor: fails when total statement coverage
# drops below COVER_BASELINE. Raise the baseline when coverage durably
# improves; never lower it to make a PR pass.
cover:
	$(GO) test ./... -coverprofile=cover.out
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | tail -1 | awk '{print $$NF}' | tr -d '%'); \
	base=$$(cat COVER_BASELINE); \
	awk -v t="$$total" -v b="$$base" 'BEGIN { \
		if (t+0 < b+0) { printf "FAIL: coverage %.1f%% is below the committed baseline %.1f%% (COVER_BASELINE)\n", t, b; exit 1 } \
		printf "OK: coverage %.1f%% meets the baseline %.1f%%\n", t, b }'

vet:
	$(GO) vet ./...

# The project's own static-analysis suite (see DESIGN.md, "Mechanically
# enforced invariants"). Exits nonzero on any finding not covered by a
# //lint:allow annotation.
lint:
	$(GO) run ./cmd/cqp-lint ./...

fmt:
	gofmt -l -w .

# The paper's Figure 5 and ablation benchmarks (laptop scale). The
# full tables come from go run ./cmd/cqp-bench (see EXPERIMENTS.md);
# performance claims about the pipeline cite BENCHMARK.json.
bench:
	$(GO) test -bench=. -benchmem .

# Run every example once.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/trafficmonitor -objects 1000 -queries 200 -ticks 5
	$(GO) run ./examples/fleetknn -taxis 150 -customers 3 -ticks 5
	$(GO) run ./examples/predictive
	$(GO) run ./examples/outofsync
	$(GO) run ./examples/timetravel

clean:
	rm -f cover.out test_output.txt bench_output.txt
