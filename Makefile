# Convenience targets for the tcfpram reproduction.

GO ?= go

.PHONY: all build test race bench bench-compare benchall table figures net examples fuzz lint detlint vet serve serve-test clean

# Pinned linter versions, fetched on demand with `go run` so the repo adds
# no module dependencies. Bump deliberately; CI uses the same pins.
STATICCHECK := honnef.co/go/tools/cmd/staticcheck@2025.1.1
GOVULNCHECK := golang.org/x/vuln/cmd/govulncheck@v1.1.4

# Step-engine benchmark sweep recorded in BENCH_step_engine.json.
# BENCH_BACKEND selects the step-engine backend (interp|fused) for the whole
# sweep via the TCFPRAM_BACKEND env var, keeping benchmark names identical
# across recorded labels so `benchjson -compare` lines them up.
BENCH_PATTERN ?= BenchmarkFig7|BenchmarkS4a_VectorAdd|BenchmarkEngine_Step
BENCH_LABEL   ?= local
BENCH_TIME    ?= 400x
BENCH_BACKEND ?= interp

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

# bench runs the step-engine benchmarks (allocations reported) and merges
# the labelled result into BENCH_step_engine.json for before/after diffing.
# The steady-state step loop is gated at 0 allocs/op.
bench:
	TCFPRAM_BACKEND=$(BENCH_BACKEND) $(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_TIME) -run '^$$' . \
		| $(GO) run ./cmd/benchjson -label $(BENCH_LABEL) -o BENCH_step_engine.json \
			-require-zero-alloc 'BenchmarkEngine_StepLoop/(interp|fused)'

# bench-compare diffs two recorded labels (ns/op and allocs/op), failing on
# regressions: make bench-compare BENCH_BASE=pr4-staged BENCH_HEAD=pr8-fused
BENCH_BASE ?= pr4-staged
BENCH_HEAD ?= pr8-fused
bench-compare:
	$(GO) run ./cmd/benchjson -compare -o BENCH_step_engine.json $(BENCH_BASE) $(BENCH_HEAD)

benchall:
	$(GO) test -bench=. -benchmem ./...

table:
	$(GO) run ./cmd/tablegen

figures:
	$(GO) run ./cmd/figgen all

net:
	$(GO) run ./cmd/netbench

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/prefixsum
	$(GO) run ./examples/mergesort
	$(GO) run ./examples/multitask
	$(GO) run ./examples/variants
	$(GO) run ./examples/bfs
	$(GO) run ./examples/matmul

fuzz:
	$(GO) test -fuzz=FuzzAssemble -fuzztime=30s ./internal/isa/
	$(GO) test -fuzz=FuzzDecode -fuzztime=30s ./internal/isa/
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/lang/
	$(GO) test -fuzz=FuzzAnalyze -fuzztime=30s ./internal/analysis/
	$(GO) test -fuzz=FuzzCostAnalyze -fuzztime=30s ./internal/analysis/
	$(GO) test -fuzz=FuzzRestore -fuzztime=30s ./internal/machine/

# lint runs the pinned static checkers on top of go vet (requires network
# access the first time, to fetch the pinned tools), then the in-tree
# determinism linter over the engine packages.
lint:
	$(GO) vet ./...
	$(GO) run $(STATICCHECK) ./...
	$(GO) run $(GOVULNCHECK) ./...
	$(GO) run ./cmd/detlint

# detlint runs only the in-tree determinism linter (no network needed): it
# flags map ranges, wall-clock reads and math/rand in the deterministic
# engine packages.
detlint:
	$(GO) run ./cmd/detlint

# vet runs tcfvet over every checked-in tcf-e program (codegen corpus and
# example sources) and compares against the expected-findings file, so new
# analyzer findings on the corpus are caught as regressions.
vet:
	$(GO) run ./cmd/tcfvet -discipline crew \
		-expect internal/analysis/testdata/expected_findings.txt \
		internal/codegen/testdata examples

# serve runs the multi-tenant execution server; serve-test is the CI smoke
# (race-enabled unit + integration tests incl. SIGTERM drain and
# goroutine-leak checks).
serve:
	$(GO) run ./cmd/tcfserve

serve-test:
	$(GO) test -race -count=1 ./internal/serve ./cmd/tcfserve ./cmd/tcfrun

clean:
	rm -f test_output.txt bench_output.txt
