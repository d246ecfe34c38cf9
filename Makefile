# Local entry points mirroring the CI gates. `make lint` is the same
# static-analysis sweep the blocking CI lint job runs (staticcheck is
# skipped with a note when the binary isn't installed — CI always runs
# it).

GO ?= go
BIN := bin

.PHONY: all build lint gofmt vet demsortvet staticcheck test race stress bench-check loc options budget clean

all: build lint test

build:
	$(GO) build ./...

lint: gofmt vet demsortvet staticcheck

# The tree is gofmt-clean: any file gofmt -l names fails the lint.
GOFMT ?= gofmt
gofmt:
	@out=$$($(GOFMT) -l .); [ -z "$$out" ] || { echo "gofmt -l: not gofmt-clean:"; echo "$$out"; exit 1; }

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
# the race detector — the schedule-sensitive tests live here — and 10
# times each psort's radix conformance (its bucket work queue) and the
# multiway selection's rounds, which split every run (dselect.Split
# under job.SortExact) and select in phase two.
PSORT_STRESS = -count=10 -run 'Conformance|Radix|Deterministic|StableAcross' ./internal/psort
SPLIT_STRESS = -count=10 -run 'Cuts|Split|Select' ./internal/dselect
SORTEXACT_STRESS = -count=10 -run 'SortExact|SortAcross|FormRuns|MergeFiles|Gather|WriterMerge|StagedWriter' ./internal/job
stress:
	for p in 1 2 4; do \
		GOMAXPROCS=$$p $(GO) test -count=20 -timeout 900s ./internal/cluster/... || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race -count=20 -timeout 1800s ./internal/cluster/... || exit 1; \
		GOMAXPROCS=$$p $(GO) test $(PSORT_STRESS) || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race $(PSORT_STRESS) || exit 1; \
		GOMAXPROCS=$$p $(GO) test $(SPLIT_STRESS) || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race $(SPLIT_STRESS) || exit 1; \
		GOMAXPROCS=$$p $(GO) test $(SORTEXACT_STRESS) || exit 1; \
		GOMAXPROCS=$$p $(GO) test -race $(SORTEXACT_STRESS) || exit 1; \
	done

# The smoke scenarios CI runs, as `make smoke-<name>`: gensort 200k
# records (and again on one core, which must write the same bytes), sort them on 4 real tcp worker processes (each must read its
# 50k-record tile exactly once), valsort the parts — its summary line
# must equal the one the launcher printed from its workers' in-flight
# digests — sort them again on the sim backend and compare the parts
# byte for byte.
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
	GOMAXPROCS=1 $(BIN)/gensort -seed $(SEED) 200000 $(SMOKE)/data-1proc.gen
	cmp $(SMOKE)/data.gen $(SMOKE)/data-1proc.gen || { echo "gensort's bytes depend on GOMAXPROCS"; exit 1; }
	printf 'localhost slots=2\n127.0.0.1 slots=2\n' > $(SMOKE)/hosts.txt
	$(BIN)/demsort -transport=tcp $(TCP) $(BOTH) -n 50000 -seed $(SEED) -infile $(SMOKE)/data.gen -outdir $(SMOKE)/tcp \
		> $(SMOKE)/tcp.log 2>&1; s=$$?; cat $(SMOKE)/tcp.log; exit $$s
	for r in 0 1 2 3; do grep -q "rank $$r: read 5000000 input bytes" $(SMOKE)/tcp.log || \
		{ echo "rank $$r did not read its tile exactly once"; exit 1; }; done
	$(BIN)/valsort $(SMOKE)/tcp/part-000 $(SMOKE)/tcp/part-001 $(SMOKE)/tcp/part-002 $(SMOKE)/tcp/part-003 \
		> $(SMOKE)/valsort.log; s=$$?; cat $(SMOKE)/valsort.log; exit $$s
	grep -qxF "$$(grep '^valsort: ' $(SMOKE)/valsort.log)" $(SMOKE)/tcp.log || \
		{ echo "the launcher's in-flight valsort line differs from valsort's re-read of the parts"; exit 1; }
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
# +100 for the one-round exact run split (job/split.go), net of the
# regular sampler it now shares with the striped sorter; −4 when phase
# 2's selection started from proven sample brackets; −235 when the
# in-place MSD became psort's one radix engine; −28 when the final merge
# fed the Sink directly and the collect's re-read went; +194 when run
# formation read the input in place (job.Input, Volume.ReadAtAsync, the
# generator's ReadAt, the counting wrapper's) and demsort refused a short
# -infile and an unknown -workload before a fleet exists; −144 when the
# baseline kept and merged its runs through job's run files and
# MergeFiles, fault injection hooked Node instead of re-implementing the
# Transport, and FillFrom became one loop; −78 when the in-memory and
# streaming merges ran xmerge's one tournament loop, closure-only codecs
# got their zero key from elem.Keyed, and three settings nothing set
# became constants; −190 when the simulator kept only the collectives
# the sorters call (its p2p mailboxes, Bcast and ExchangeAny went, and
# so did Node's Bcast and ExchangeAny); +72 when every run proved its own
# output in flight (the workers' CRC-32C digest lines and the launcher's
# merge of them, net of its deleted re-read of input and part files);
# −62 when the striped merge sent each batch straight to the output's
# owners and its collect pass (the re-read and re-routing of the striped
# output, Plan.CollectWindow) went; −36 when run formation's exact split
# ran on dselect's engine (dselect.Split; job/split.go's own owner
# gather, Cuts' bisection and gatherThreshold went) and A2ARounds
# dropped its send charge; +94 when sortbench's generator became one
# allocation-free record kernel (+33), gensort generated each chunk in
# parallel and refused flag values that corrupt the record format
# (+31), and the merge loop read head keys from per-stream key
# windows (+30); −4 when forwarded blocks stayed encoded: the striper
# placed both striped output layouts (the striped merge's deliver went)
# and the exchange and job.Writer dropped their codec round trips, net
# of the striper's piece and Sink-order checks and its charge of what
# it receives; +72 when the striped merge merged the bytes it read:
# elem.View (+23), the in-place batch merge with its reused buffers
# (+16), RegularSample's pairwise merge of the pool (+24) and the race
# builds' poisoning of recycled buffers (+22), net of xmerge.Merge
# (−10) and the calls the baseline, FormRuns and SortAcross dropped; −70
# when elem decided in one place (pod) that an element is its wire bytes
# (BulkCodec and its six slice methods went) and run formation and the
# final merge sorted and merged the buffers they read (their per-block
# buffers and decode targets went); +201 when no run was held twice:
# psort.Order and its shared engine (+38), the dselect.Sorted view the
# splits read through (+20), elem's gather and output views (+43),
# Writer.Merge, the canonical store merging into the writer's block and
# the permutation's charge and plan term (job +47, core +7), the
# striped sorter's reused piece (+14), the tcp liveness plane telling a
# pause of this process from a silent peer (+29) and demsort's part
# file and MergeStream's caller-owned buffer (+3); −9 when the piece's
# start rode with SortAcross's parts (an 8-byte trailer per part) and
# the striped sorter's gather of the piece lengths went; +66 when the
# merge and the proof ran at machine speed: sortbench's three-record
# CRC-32C kernel and its CPUID check (+32; the 107 assembly lines are not
# counted), the tournament replay on conditional moves (pq +9) and the
# merge loop's one copy per element (xmerge +6), the selection's block
# cache keeping its read buffers (core +17) and dselect's residual
# growing its buffer once (+3), net of psort's pair size assert, which
# now admits 386's 12-byte pair (−1); +12 when the budget charged only
# what a PE holds: SortAcross's spare share and the run store's release
# of a segment nobody held went, and the striped piece, the striped send
# vectors, the store's writer tail and the R = 1 merged chunk are charged
# where they are allocated (run formation ±0, MergeQuota's comment +1),
# and dselect.Select fails the run past a cap on its rounds (+11); −17
# when a run's segments came from its length (job.RankBounds): the
# segment matrices, their wire header and their manifest copies went and
# a resumed rank gathered the run directory as a fresh one does (−25,
# the manifest's refusal checks included), and the exchange held one
# charged writer tail at a time (+8); +26 when run formation held one
# run buffer: the reads issued one run ahead in virtual time and filled
# once the run before is sent (job.Input's Issue and Fill, net of its
# Read and Volume.ReadAtAsync: job +23, blockio −12, baseline −1) and
# a resume from the selection commit gathered no sample (core +16); +216
# when the canonical sorter's contiguous block I/O moved stretches of
# blocks per store call, every block still accounted as one: the store's
# and the volume's stretch calls and the file store's dense block
# lengths (blockio +91), the final merge's read window, the writer's
# stage and the plan's ReadWindow and WriteStage (job +82), the merge
# loop writing each block where its caller says (xmerge +8), the
# stage's charges (core +8) and demsort -pprof (+27); −35 when a
# manifest became its run directory: the committed block layout,
# allocator state and phase name went, a resumed rank deriving them from
# the extents (Volume.Adopt; blockio −28, core −1 net of the commit's
# live-block check and the resume's refusal of a block named twice),
# and xmerge.MergeStream went (−6).
LOC_MAX = 14994
# Options: +1 (61) for demsort -pprof, the tcp workers' CPU and heap
# profiles.
OPTIONS_MAX = 61
budget:
	@loc=$(LOC_TOTAL); opts=$$($(MAKE) -s options | awk 'END {print $$1}'); \
	echo "$$loc non-test lines (max $(LOC_MAX)), $$opts options (max $(OPTIONS_MAX))"; \
	[ $$loc -le $(LOC_MAX) ] && [ $$opts -le $(OPTIONS_MAX) ]

clean:
	rm -rf $(BIN) smoke-out
