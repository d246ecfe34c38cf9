# Local entry points mirroring the CI gates. `make lint` is the same
# static-analysis sweep the blocking CI lint job runs (staticcheck is
# skipped with a note when the binary isn't installed — CI always runs
# it).

GO ?= go
BIN := bin

.PHONY: all build lint vet demsortvet staticcheck test race stress bench-check loc options budget clean

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

# The smoke scenarios CI runs, as `make smoke-<name>`: gensort 200k
# records, sort them on 4 real tcp worker processes, valsort the parts,
# sort them again on the sim backend and compare the parts byte for byte.
# A scenario is a seed, the flags both sorts get, and each side's own.
SMOKE = smoke-out/$*
TCP = -p 4
smoke-tcp:         SEED = 2026
# 49 runs per rank of 4-record blocks: all latency, no bandwidth.
smoke-smallblock:  SEED = 2026
smoke-smallblock:  BOTH = -mem 4096 -block 400
# -mem: every PE also holds the prediction table (N/B entries).
smoke-striped-tcp: SEED = 2028
smoke-striped-tcp: BOTH = -striped -mem 65536
smoke-striped-tcp: TCP = -p 4 -store=file
# The other stripe layout: without -randomize the run stripes are not
# rotated (stripesort's home).
smoke-striped-norand: SEED = 2029
smoke-striped-norand: BOTH = -striped -mem 65536 -randomize=false
smoke-striped-norand: TCP = -p 4 -store=file
smoke-hostfile:    SEED = 2027
smoke-hostfile:    TCP = -hostfile $(SMOKE)/hosts.txt -store=file
# Overlapping changes the schedule, never the bytes.
smoke-overlap:     SEED = 2031
smoke-overlap:     TCP = -p 4 -overlap=true
smoke-overlap:     SIM = -overlap=false
smoke-%:
	@test -n "$(SEED)" || { echo "unknown smoke scenario $*"; exit 1; }
	rm -rf $(SMOKE) && mkdir -p $(SMOKE) $(BIN)
	$(GO) build -o $(BIN)/ ./cmd/gensort ./cmd/demsort ./cmd/valsort
	$(BIN)/gensort -seed $(SEED) 200000 $(SMOKE)/data.gen
	printf 'localhost slots=2\n127.0.0.1 slots=2\n' > $(SMOKE)/hosts.txt
	$(BIN)/demsort -transport=tcp $(TCP) $(BOTH) -n 50000 -seed $(SEED) -infile $(SMOKE)/data.gen -outdir $(SMOKE)/tcp
	$(BIN)/valsort $(SMOKE)/tcp/part-000 $(SMOKE)/tcp/part-001 $(SMOKE)/tcp/part-002 $(SMOKE)/tcp/part-003
	$(BIN)/demsort -transport=sim -p 4 $(SIM) $(BOTH) -n 50000 -seed $(SEED) -infile $(SMOKE)/data.gen -outdir $(SMOKE)/sim
	for r in 0 1 2 3; do cmp $(SMOKE)/sim/part-00$$r $(SMOKE)/tcp/part-00$$r || exit 1; done
	@echo "smoke-$*: tcp and sim part files are byte-identical"

# Non-test Go lines, the number ROADMAP's standing [simplicity] list
# budgets and CHANGES.md reports per PR: the total by its pinned
# definition, then the same count per top-level package (the root
# package first).
LOC_FIND = -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path '*/testdata/*'
LOC_TOTAL = $$(find . $(LOC_FIND) | xargs cat | wc -l)
loc:
	@printf '%6d total\n' $(LOC_TOTAL)
	@printf '%6d .\n' $$(find . -maxdepth 1 $(LOC_FIND) | xargs cat | wc -l)
	@for d in cmd/* examples/* internal/*; do \
		printf '%6d %s\n' $$(find ./$$d $(LOC_FIND) | xargs cat | wc -l) $$d; \
	done

# Settable options, reported next to the line count: the exported fields
# of the configuration structs plus demsort's flags.
OPTION_STRUCTS = internal/job/job.go:Base internal/job/job.go:Common internal/core/config.go:Config \
	internal/core/checkpoint.go:CheckpointConfig internal/cluster/tcp/tcp.go:Config internal/cluster/sim/sim.go:Config
options:
	@n=$$(grep -c 'fs\.[A-Za-z0-9]*Var(' cmd/demsort/main.go); printf '%6d demsort flags\n' $$n; \
	for s in $(OPTION_STRUCTS); do \
		c=$$(awk -v t="$${s#*:}" '$$0 ~ "^type " t " struct" {on = 1; next} on && /^}/ {exit} \
			on && /^\t[A-Z][A-Za-z0-9]* +[^ ]/ {c++} END {print c + 0}' $${s%:*}); \
		printf '%6d %s\n' $$c $$s; n=$$((n + c)); \
	done; printf '%6d options total\n' $$n

# The budget both figures are held to (CI's lint job runs this): a PR
# that spends lines or adds an option raises the limit here, in the open.
LOC_MAX = 14950
OPTIONS_MAX = 60
budget:
	@loc=$(LOC_TOTAL); opts=$$($(MAKE) -s options | awk 'END {print $$1}'); \
	echo "$$loc non-test lines (max $(LOC_MAX)), $$opts options (max $(OPTIONS_MAX))"; \
	[ $$loc -le $(LOC_MAX) ] && [ $$opts -le $(OPTIONS_MAX) ]

clean:
	rm -rf $(BIN) smoke-out
