GO ?= go

.PHONY: ci test race vet fmt build lint lint-tables bce allocgate fuzz fuzz-smoke bench bench-coded bench-multi bench-earliest bench-stack bench-coded-gate bench-stack-gate bench-compare clean

# timed runs one lint gate and prints its wall-clock seconds, so a gate
# that quietly grows past the lint budget (90s total) is visible in every
# run. $(1) is the label, $(2) the command.
define timed
	@start=$$(date +%s); $(2); rc=$$?; end=$$(date +%s); \
	echo "[lint] $(1): $$((end - start))s"; exit $$rc
endef

ci: ## full tier-1 gate: fmt + vet + build + test + race
	./ci.sh

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

# All static-analysis layers: dralint over the paper's automata tables,
# treelint over the Go source (including the flow-sensitive
# allocfree/lifecycle/hotlock analyzers), tablecheck over the compiled
# transition tables, the bounds-check-elimination gate and the
# escape-analysis allocation gate over the plain kernels. treelint is
# built once into bin/ and driven by go vet so test files are analyzed too
# (and results land in the build cache). Each gate prints its wall-clock
# time; the whole lint target must stay under 90s.
lint: lint-tables bce allocgate
	$(call timed,dralint,$(GO) run ./cmd/dralint)
	$(GO) build -o bin/treelint ./cmd/treelint
	$(call timed,treelint,$(GO) vet -vettool=$(CURDIR)/bin/treelint ./...)

# Verify every compiled machine the repo constructs: table shape, closure,
# flag hygiene, totality, and bounded equivalence against the uncompiled
# machine (internal/tablecheck).
lint-tables:
	$(call timed,tablecheck,$(GO) run ./cmd/tablecheck)

# Fail if any //treelint:plain batch kernel in internal/core or
# internal/encoding retains a compiler-inserted bounds check.
bce:
	$(call timed,bcegate,$(GO) run ./cmd/bcegate)

# Fail if any //treelint:plain kernel body in internal/core or
# internal/encoding reaches the heap (compiler escape analysis, -m -m),
# modulo //treelint:partial-annotated lines.
allocgate:
	$(call timed,allocgate,$(GO) run ./cmd/allocgate)

fmt:
	gofmt -l .

# Short fuzz passes over every fuzz target; CI-sized, not a campaign.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/dralint/
	$(GO) test -run '^$$' -fuzz FuzzDRALint -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzXMLScanner -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzTermScanner -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzJSONSource -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzParallelSplit -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzCodedVsString -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzStackCodedVsString -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzEarliestVsCurrent -fuzztime $(FUZZTIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzTablecheckRoundtrip -fuzztime $(FUZZTIME) ./internal/tablecheck/
	$(GO) test -run '^$$' -fuzz FuzzProductVsFanout -fuzztime $(FUZZTIME) ./internal/product/

# CI-sized smoke pass (see ci.sh): the chunk-parallel, coded-pipeline,
# pushdown-vs-old-machine and earliest-emission differential fuzzers, the
# three event-source fuzzers, the tablecheck roundtrip fuzzer (seeded with
# mined equivalence counterexamples), and the multi-query product-vs-fanout
# differential fuzzer, 10s each.
SMOKETIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzParallelSplit -fuzztime $(SMOKETIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzCodedVsString -fuzztime $(SMOKETIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzStackCodedVsString -fuzztime $(SMOKETIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzEarliestVsCurrent -fuzztime $(SMOKETIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzXMLScanner -fuzztime $(SMOKETIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzTermScanner -fuzztime $(SMOKETIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzJSONSource -fuzztime $(SMOKETIME) ./internal/encoding/
	$(GO) test -run '^$$' -fuzz FuzzTablecheckRoundtrip -fuzztime $(SMOKETIME) ./internal/tablecheck/
	$(GO) test -run '^$$' -fuzz FuzzProductVsFanout -fuzztime $(SMOKETIME) ./internal/product/

# Regenerate the committed chunk-parallel benchmark snapshot. The numbers
# are machine-dependent; commit them together with the cpu context line.
BENCHTIME ?= 100x
BENCHCOUNT ?= 10
TOLERANCE ?= 0.02
bench:
	$(GO) test -run '^$$' -bench SelectParallel -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_parallel.json

# Regenerate the compiled-pipeline benchmark snapshot: every evaluator
# family through the string and coded Select paths on the same documents,
# and the EL/AL wrappers through the string and coded Recognize paths.
bench-coded:
	for i in $$(seq $(BENCHCOUNT)); do $(GO) test -run '^$$' -bench 'SelectCoded|RecognizeWrappers' -benchtime $(BENCHTIME) . || exit 1; done | $(GO) run ./cmd/benchjson > BENCH_coded.json

# Regenerate the multi-query benchmark snapshot: the merged product
# automaton against the fan-out it replaces at 8/64/512 queries.
bench-multi:
	$(GO) test -run '^$$' -bench MultiQueryProduct -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_multi.json

# Regenerate the earliest-emission benchmark snapshot: the per-event
# latency contract against the string and coded drivers, plus the
# early-exit payoff case.
bench-earliest:
	$(GO) test -run '^$$' -bench SelectEarliest -benchtime $(BENCHTIME) . | $(GO) run ./cmd/benchjson > BENCH_earliest.json

# Regenerate the pushdown-fallback benchmark snapshot: the rebuilt pooled
# machine (string and coded paths) against the legacy per-event baseline
# and the stackless coded path it falls back from. The acceptance contract
# (EXPERIMENTS.md): coded ≤ 2× stackless-coded ns/event per document.
bench-stack:
	for i in $$(seq $(BENCHCOUNT)); do $(GO) test -run '^$$' -bench SelectStack -benchtime $(BENCHTIME) . || exit 1; done | $(GO) run ./cmd/benchjson > BENCH_stack.json

# base_compare runs the benchmarks matching $(1) at revision BASE and in
# the working tree on the same host, instead of against a snapshot made on
# another: the base is checked out in a temporary git worktree, the two
# suites run alternately BENCHCOUNT times (so a drift in the host's speed
# hits both sides alike), and benchjson compares the working tree's
# per-metric medians against the base's at TOLERANCE.
define base_compare
	@set -e; tmp=$$(mktemp -d); \
	trap 'git worktree remove --force "$$tmp/base" >/dev/null 2>&1; rm -rf "$$tmp"' EXIT; \
	git worktree add --quiet --detach "$$tmp/base" "$(BASE)"; \
	for i in $$(seq $(BENCHCOUNT)); do \
		$(GO) -C "$$tmp/base" test -run '^$$' -bench '$(1)' -benchtime $(BENCHTIME) . >> "$$tmp/base.txt"; \
		$(GO) test -run '^$$' -bench '$(1)' -benchtime $(BENCHTIME) . >> "$$tmp/head.txt"; \
	done; \
	$(GO) run ./cmd/benchjson < "$$tmp/base.txt" > "$$tmp/base.json"; \
	$(GO) run ./cmd/benchjson -compare "$$tmp/base.json" -tolerance $(TOLERANCE) < "$$tmp/head.txt"
endef

# Gate twin of bench-stack: the pushdown paths must stay within TOLERANCE
# of the committed snapshot (interleaved median-of-N, see bench-coded-gate).
# With BASE=<rev> the comparison is against that revision on this host
# (base_compare).
bench-stack-gate:
ifeq ($(BASE),)
	for i in $$(seq $(BENCHCOUNT)); do $(GO) test -run '^$$' -bench SelectStack -benchtime $(BENCHTIME) . || exit 1; done | $(GO) run ./cmd/benchjson -compare BENCH_stack.json -tolerance $(TOLERANCE)
else
	$(call base_compare,SelectStack)
endif

# Same-host comparison of any benchmark suite against a base revision:
# make bench-compare BASE=<rev> BENCH=<regex> (see base_compare).
bench-compare:
	@test -n "$(BASE)" && test -n "$(BENCH)" || { echo "usage: make bench-compare BASE=<rev> BENCH=<regex>" >&2; exit 2; }
	$(call base_compare,$(BENCH))

# Gate for the earliest work: the default (non-earliest) coded hot path
# must stay within TOLERANCE (default 2%) ns/event of the committed
# snapshot — a contract that assumes a quiet machine. Both sides run
# the whole suite BENCHCOUNT times in separate invocations — interleaving
# decorrelates scheduler jitter, which hits back-to-back -count repeats
# of one benchmark together — and benchjson takes the per-metric median.
# The snapshot's absolute ns/event only holds on its own host; BASE=<rev>
# compares against that revision on this host instead (base_compare).
bench-coded-gate:
ifeq ($(BASE),)
	for i in $$(seq $(BENCHCOUNT)); do $(GO) test -run '^$$' -bench 'SelectCoded|RecognizeWrappers' -benchtime $(BENCHTIME) . || exit 1; done | $(GO) run ./cmd/benchjson -compare BENCH_coded.json -tolerance $(TOLERANCE)
else
	$(call base_compare,SelectCoded|RecognizeWrappers)
endif

clean:
	rm -f dralint classify streamq
	rm -rf bin
