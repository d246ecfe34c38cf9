# Local entry points mirroring the CI gates. `make lint` is the same
# static-analysis sweep the blocking CI lint job runs (staticcheck is
# skipped with a note when the binary isn't installed — CI always runs
# it).

GO ?= go
BIN := bin

.PHONY: all build lint vet demsortvet staticcheck test race stress bench-check runform-bench loc clean

all: build lint test

build:
	$(GO) build ./...

lint: vet demsortvet staticcheck

vet:
	$(GO) vet ./...

demsortvet:
	@mkdir -p $(BIN)
	$(GO) build -o $(BIN)/demsortvet ./cmd/demsortvet
	$(GO) vet -vettool=$(CURDIR)/$(BIN)/demsortvet ./...
	$(GO) test -timeout 120s ./internal/analysis/...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Tier-1 as ROADMAP.md writes it (non-race, so the `!race` allocation
# tests run), plus the nested bench module's own tests.
test: bench-check
	$(GO) test -timeout 900s ./...

race:
	$(GO) test -race -timeout 900s ./...

# The benchmark builds from its checkout: API drift under bench/ must
# fail here, not in the driver.
bench-check:
	cd bench && $(GO) build ./... && $(GO) vet ./... && $(GO) test ./...

# The transport plane 20 times over at 1, 2 and 4 Ps, with and without
# the race detector — the schedule-sensitive tests live here.
stress:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=20 -timeout 900s ./internal/cluster/... || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -count=20 -timeout 1800s ./internal/cluster/... || exit 1; \
	done

# One-iteration smoke of the run-formation parallel radix benchmark —
# the same gate CI runs; use -benchtime=10x locally for real numbers.
runform-bench:
	$(GO) test -bench=RunFormationScaling -benchtime=1x -run='^$$' .

# Non-test Go lines, the number ROADMAP direction 4 budgets and
# CHANGES.md reports per PR: the total by its pinned definition, then
# the same count per top-level package (the root package first).
LOC_FIND = -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*'
loc:
	@printf '%6d total\n' $$(find . $(LOC_FIND) | xargs cat | wc -l)
	@printf '%6d .\n' $$(find . -maxdepth 1 $(LOC_FIND) | xargs cat | wc -l)
	@for d in cmd/* examples/* internal/*; do \
		printf '%6d %s\n' $$(find ./$$d $(LOC_FIND) | xargs cat | wc -l) $$d; \
	done

clean:
	rm -rf $(BIN)
