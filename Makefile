# Standard entry points for the Spawn & Merge reproduction.

GO ?= go

.PHONY: all build vet test race figure3 figure3-full soak explore explore-deep churn compact fuzz fuzz-ot fuzz-batch fuzz-cow fuzz-segment examples

# race is part of all so the fault-injection suite always runs under the
# race detector.
all: build vet test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Regenerates Figure 3 and the Section III analysis (scaled-down sweep,
# the run recorded in figure3_output.txt).
figure3:
	$(GO) run ./cmd/figure3 -repeats 10

# The paper's full l <= 10000 sweep (takes on the order of an hour).
figure3-full:
	$(GO) run ./cmd/figure3 -full -repeats 3

# Load legs: the explorer's sized scenarios and its process-kill check,
# each a fixed number of schedules, so a leg does the same work on every
# machine (about 40s on 2 cores).
#   collab  8 clients × 50 edits through a transport whose every fault is
#           a decision must reach the closed form c5f2f3d793b78755;
#   load    512 clients × 7 edits over 256 documents must leave every
#           document on its closed form (5e6249988330ac42); its 7 schedules
#           run 1, 2 and 4 shards, each also with a shard kill, and 1 shard
#           under decided fabric faults (the covering decisions take every
#           alternative, or the run fails);
#   mem     128 waves with eager history GC, a rotating WAL and pruned
#           checkpoints must equal the unbounded run and hold retained ops,
#           journal disk and post-GC heap under their bounds, crash-swept;
#   -kill   every fanout and churn schedule re-run in a journaled child
#           process, SIGKILLed and resumed until it exits 0, must reach
#           the live outcome, with at least one resume per leg.
soak:
	$(GO) run ./cmd/explore -scenario collab -size 50 -schedules 8
	$(GO) run ./cmd/explore -scenario load -size 7 -schedules 7
	$(GO) run ./cmd/explore -scenario mem -size 8 -schedules 4 -crash -segment-bytes 4096 -retain-ckpts 2
	$(GO) run ./cmd/explore -scenario fanout -schedules 16 -kill
	$(GO) run ./cmd/explore -scenario churn -schedules 16 -kill

# Bounded schedule exploration: exhaustively enumerate the MergeAny
# fixtures, then random-walk the deterministic and chaos fixtures. The
# whole pass fits in a CI smoke budget (well under 60s).
explore:
	$(GO) run ./cmd/explore -scenario anyorder -strategy exhaustive
	$(GO) run ./cmd/explore -scenario overlapany -strategy exhaustive
	$(GO) run ./cmd/explore -scenario abortsync -strategy exhaustive -procs 1,4
	$(GO) run ./cmd/explore -scenario fanout -schedules 32 -procs 1,4
	$(GO) run ./cmd/explore -scenario chaos -schedules 16
	$(GO) run ./cmd/explore -scenario session -strategy exhaustive -schedules 128
	$(GO) run ./cmd/explore -scenario compact -strategy exhaustive -schedules 2048
	$(GO) run ./cmd/explore -scenario shard -strategy exhaustive -schedules 64

# Deep exploration for the nightly job: every built-in scenario, big
# random-walk budgets, a GOMAXPROCS sweep, crash-point and process-kill
# sweeps, the sized scenarios at full load (load at 512 × 195 ≈ 100k
# edits, its 12 schedules every combination of shard count, kill and
# fabric faults), and failing seeds persisted under explore-seeds/ for
# artifact upload.
explore-deep:
	mkdir -p explore-seeds
	$(GO) run ./cmd/explore -scenario fanout -schedules 512 -procs 1,2,4,8 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario anyorder -schedules 256 -procs 1,4 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario abortsync -schedules 256 -procs 1,4 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario overlapany -strategy exhaustive -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario fanout -schedules 16 -crash -crash-points 5 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario fanout -schedules 64 -kill -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario chaos -schedules 128 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario churn -strategy exhaustive -schedules 4000 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario churn -schedules 16 -crash -crash-points 3 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario churn -schedules 256 -kill -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario session -strategy exhaustive -schedules 128 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario compact -strategy exhaustive -schedules 2048 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario compact -schedules 8 -crash -crash-points 5 -segment-bytes 256 -retain-ckpts 1 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario shard -strategy exhaustive -schedules 64 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario collab -size 50 -schedules 64 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario load -size 195 -schedules 12 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario mem -size 32 -schedules 16 -crash -segment-bytes 4096 -retain-ckpts 2 -seeds explore-seeds

# Elastic-cluster churn smoke (<10s of runtime): a bounded exhaustive
# enumeration of membership schedules (join/drain/leave/kill × explored
# placements). `make soak` SIGKILLs and resumes journaled churn runs.
churn:
	$(GO) run ./cmd/explore -scenario churn -strategy exhaustive -schedules 300

# Compaction smoke (<15s of runtime): exhaustively enumerate the compact
# scenario's decision space (GC policy × abort × drain × MergeAny pick
# order must land on one fingerprint), crash-sweep it with forced WAL
# rotation + checkpoint pruning, and run a small bounded-memory leg.
compact:
	$(GO) run ./cmd/explore -scenario compact -strategy exhaustive -schedules 2048
	$(GO) run ./cmd/explore -scenario compact -schedules 4 -crash -segment-bytes 256 -retain-ckpts 1
	$(GO) run ./cmd/explore -scenario mem -size 2 -schedules 4 -crash -segment-bytes 4096 -retain-ckpts 2

# Journal recovery fuzzing (arbitrary WAL bytes must never panic and
# must classify as corrupt / torn-tail / no-run).
fuzz:
	$(GO) test ./internal/journal -run '^$$' -fuzz FuzzJournalRecover -fuzztime 30s -fuzzminimizetime 10x

# OT invariant fuzzing: machine-generated concurrent histories must
# satisfy TP1, transform-path agreement and compaction soundness.
fuzz-ot:
	$(GO) test ./internal/ot -run '^$$' -fuzz FuzzListTransform -fuzztime 30s -fuzzminimizetime 10x

# Differential fuzzing of the batched run-length transform engine: it
# must produce op sequences identical to the pairwise shape engine.
fuzz-batch:
	$(GO) test ./internal/ot -run '^$$' -fuzz FuzzBatchedTransform -fuzztime 30s -fuzzminimizetime 10x

# Differential fuzzing of the COW vector: interleaved splices, appends,
# overwrites, pops, sealed snapshots and compactions must match a
# plain-slice model, and every earlier snapshot must keep its contents.
fuzz-cow:
	$(GO) test ./internal/cow -run '^$$' -fuzz FuzzVectorSplice -fuzztime 30s -fuzzminimizetime 10x

# Segmented-WAL recovery fuzzing: arbitrary bytes as a rotated segment
# (with and without a stale base wal.log underneath) must recover to a
# classified outcome, never resurrect truncated history, and survive
# re-open after recovery.
fuzz-segment:
	$(GO) test ./internal/journal -run '^$$' -fuzz FuzzSegmentRecover -fuzztime 30s -fuzzminimizetime 10x

examples:
	for ex in quickstart server simulation collabtext semaphore distributed bank pipeline stencil; do \
		echo "=== $$ex ==="; $(GO) run ./examples/$$ex || exit 1; \
	done
