# Tier-1 verification is `make test`; `make bench` regenerates the whole
# evaluation as benchmarks; `make fleet` runs the datacenter fleet
# simulation side by side across dispatch policies; `make rack` compares
# the rack-level sprint-coordination policies on a tightly provisioned
# shared circuit; `make scenario` plays the flash-crowd scenario across
# every policy; `make trace` replays it with the flight recorder
# attached, writing TRACE_flashcrowd.jsonl and printing the regret
# summary; `make benchsmoke` runs every benchmark exactly once
# (the CI guard that keeps the fleet and rack subsystems exercised,
# bounded by -timeout so a hung scale bench fails loudly instead of
# stalling the job); `make bench-json` runs the fleet-scale benchmarks
# with -benchmem and emits BENCH_fleet.json (ns/op, B/op, allocs/op) so
# CI can archive the perf trajectory from every run; `make bench-gate`
# compares that report against the committed BENCH_baseline.json and
# fails on regressions past the tolerance; `make bench-baseline`
# refreshes the baseline after an intentional perf change; `make lint`
# is the static gate — gofmt, go vet, the first-party sprintvet
# analyzers (determinism and hot-path contracts), and govulncheck when
# it is installed; `make fuzz-smoke` gives the scenario-JSON, workload-
# spec, trace-replay, and recording-reader fuzzers a short budget each;
# `make reliability`
# demos the request-reliability layer (gray stragglers, client timeouts,
# a budgeted retry storm); `make tenants` demos the multi-tenant
# workload; `make replay` is the record→replay golden gate — it records
# the flash-crowd scenario with the flight recorder, converts the
# recording to a replayable trace, replays it at two shard-worker
# counts, and diffs the byte-identical report against the committed
# testdata/GOLDEN_replay.txt (refresh with `make replay-golden` after an
# intentional engine change).

GO ?= go

# The CI gate tolerance is deliberately loose (1.5 = fail past 2.5×):
# the baseline is measured on a different machine than the runner and
# benchtime=1x is noisy, but the gate still catches the order-of-
# magnitude regressions (an O(N) scan sneaking back into dispatch) that
# used to merge green. Tighten locally with TOLERANCE=0.25.
TOLERANCE ?= 1.5

# The parallel-speedup floor for the sharded event loop: the decoupled
# 8-worker run must beat its sequential base by this ratio. benchjson
# only arms the check when the benchmark ran at GOMAXPROCS >= 4 — a
# narrower runner cannot exhibit parallel speedup, so it prints a skip
# note instead of a false verdict.
MIN_SPEEDUP ?= BenchmarkFleetScaleDecoupledParallel=3

.PHONY: all build test bench benchsmoke bench-json bench-gate bench-baseline vet lint fuzz-smoke fleet rack scenario trace reliability tenants replay replay-golden replay-run

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint is the full static gate: formatting, the standard vet suite, the
# module's own sprintvet analyzers run through the real `go vet
# -vettool` protocol, and govulncheck when present (it needs a network
# to fetch the vulnerability database, so offline checkouts skip it
# with a note instead of failing).
lint: vet
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	mkdir -p bin
	$(GO) build -o bin/sprintvet ./cmd/sprintvet
	$(GO) vet -vettool=$(CURDIR)/bin/sprintvet ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

test: vet
	$(GO) test -race ./...

# A short-budget fuzz pass over every strict-decode surface — the
# scenario JSON loader, the workload-spec loader, the request-trace
# parser/replayer, and the flight-recording JSONL reader: enough to
# catch a fresh panic in parsing, validation, or a bounded run, or a
# recording that does not re-encode to a fixed point, without holding
# up CI. (The go tool takes one -fuzz target per invocation, hence four.)
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzScenarioJSON -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzWorkloadSpecJSON -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzTraceReplay -fuzztime 10s ./internal/fleet
	$(GO) test -run '^$$' -fuzz FuzzReadJSONL -fuzztime 10s ./internal/trace

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

benchsmoke:
	$(GO) test -bench=. -benchtime=1x -timeout 10m -run=^$$ .

bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkFleetScale|BenchmarkFleetSweep|BenchmarkRackSweep|BenchmarkFleetScenario|BenchmarkFleetTrace|BenchmarkFleetReliability|BenchmarkFleetTenants' \
		-benchmem -benchtime=1x -timeout 10m . > BENCH_fleet.txt
	cat BENCH_fleet.txt
	$(GO) run ./cmd/benchjson < BENCH_fleet.txt > BENCH_fleet.json

bench-gate: bench-json
	$(GO) run ./cmd/benchjson -compare BENCH_baseline.json BENCH_fleet.json \
		-tolerance $(TOLERANCE) -min-speedup $(MIN_SPEEDUP)

bench-baseline: bench-json
	cp BENCH_fleet.json BENCH_baseline.json

fleet:
	$(GO) run ./cmd/fleetsim -nodes 100 -requests 20000

rack:
	$(GO) run ./cmd/fleetsim -nodes 96 -requests 20000 -policy sprint-aware \
		-coordination all -rack-size 16 -rack-budget-w 31 -rate 57.6

scenario:
	$(GO) run ./cmd/fleetsim -scenario examples/scenarios/flashcrowd.json -policy all

trace:
	$(GO) run ./cmd/fleetsim -scenario examples/scenarios/flashcrowd.json \
		-policy sprint-aware -coordination token-permit \
		-trace TRACE_flashcrowd.jsonl -trace-level full -trace-summary

reliability:
	$(GO) run ./cmd/fleetsim -nodes 16 -requests 20000 -policy least-loaded \
		-gray-frac 0.2 -gray-slowdown 6 -timeout-s 5 -max-retries 8 \
		-retry-backoff-s 0.1 -retry-budget 0.7

tenants:
	$(GO) run ./cmd/fleetsim -workload examples/workloads/tenants.json \
		-policy sprint-aware

# The record→replay golden gate. One traced flash-crowd run produces the
# recording; -convert-trace turns its dispatch decisions into a
# replayable CSV; the replay report must be byte-identical at different
# -shard-workers counts AND match the committed golden — any drift in
# the recorder, the converter, the trace codec, or the replay engine
# fails the diff loudly.
replay: replay-run
	bin/fleetsim -policy sprint-aware -coordination token-permit \
		-replay REPLAY_trace.csv -shard-workers 7 > REPLAY_report.shard7.txt
	cmp REPLAY_report.txt REPLAY_report.shard7.txt
	diff -u testdata/GOLDEN_replay.txt REPLAY_report.txt
	@echo "replay gate: report matches the golden, byte-identical across shard counts"

# replay-golden refreshes the committed golden after an intentional
# engine or report change.
replay-golden: replay-run
	cp REPLAY_report.txt testdata/GOLDEN_replay.txt

# replay-run regenerates the replay report: record, convert, replay.
replay-run:
	mkdir -p bin
	$(GO) build -o bin/fleetsim ./cmd/fleetsim
	bin/fleetsim -scenario examples/scenarios/flashcrowd.json \
		-policy sprint-aware -coordination token-permit \
		-trace REPLAY_recording.jsonl > /dev/null
	bin/fleetsim -convert-trace REPLAY_recording.jsonl -replay-out REPLAY_trace.csv
	bin/fleetsim -policy sprint-aware -coordination token-permit \
		-replay REPLAY_trace.csv -shard-workers 2 > REPLAY_report.txt
