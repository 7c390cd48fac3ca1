# Development targets for the cqp reproduction.

GO ?= go

.PHONY: all build test race flake chaos fuzz cover bench benchmark vet lint fmt examples clean

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
	$(GO) test -race -count=50 ./internal/shard/ ./internal/server/ ./internal/client/

# The one fault test: TestChaosConvergence drives clients through a
# seeded storm of network faults until they converge (DESIGN.md §7,
# "What corruption can and cannot do"). Restarts are configurations of
# TestDifferentialTCP.
chaos:
	$(GO) test -race -run TestChaosConvergence -count=1 -v ./internal/server/

# Short fuzz passes over the wire protocol: hostile input to the
# decoder, then structured messages through the encode→decode→encode
# round trip; then seeded scenarios through the single and the sharded
# engine.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/wire/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=30s ./internal/wire/
	$(GO) test -run '^$$' -fuzz=FuzzScenario -fuzztime=30s ./internal/shard/

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

# The project's own static-analysis suite: seven analyzers, each kept
# for a mutation that fails lint and no test (DESIGN.md §9), run as go
# vet's tool over the module and the nested benchmark module. Exits
# nonzero on any finding not covered by a //lint:allow annotation.
lint:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/cqp-lint" ./cmd/cqp-lint && \
	$(GO) vet -vettool="$$tmp/cqp-lint" ./... && \
	cd benchmark && $(GO) vet -vettool="$$tmp/cqp-lint" .

# One benchmark run (BENCHMARK.json) of workload W.
W ?= engine-paper
benchmark:
	bash benchmark/run.sh --workload $(W) --seed 1 --seconds 15 --trace 0

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
