# Standard entry points for the Spawn & Merge reproduction.

GO ?= go

.PHONY: all build vet test race bench bench-gate figure3 figure3-full soak soak-trace soak-kill soak-collab soak-mem soak-shard explore explore-deep churn compact fuzz fuzz-ot fuzz-batch fuzz-segment examples

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

bench:
	$(GO) test -bench=. -benchmem .

# Quick trajectory with the allocation gates: fails if a spawn-merge
# roundtrip or a shard routing lookup allocates more than the committed
# budgets (see cmd/bench).
bench-gate:
	$(GO) run ./cmd/bench -quick -gate -out BENCH_PR10.quick.json

# Regenerates Figure 3 and the Section III analysis (scaled-down sweep).
figure3:
	$(GO) run ./cmd/figure3 -repeats 3

# The paper's full l <= 10000 sweep (takes on the order of an hour).
figure3-full:
	$(GO) run ./cmd/figure3 -full -repeats 3

soak:
	$(GO) run ./cmd/soak -duration 60s

# Crash-recovery soak: SIGKILL + resume journaled worker processes in a
# loop, verifying every recovered fingerprint.
soak-kill:
	$(GO) run ./cmd/soak -kill -duration 30s

# Span-tree determinism soak: traced random probes must produce
# bit-identical span trees and counter sets across GOMAXPROCS 1/4.
soak-trace:
	$(GO) run ./cmd/soak -trace -duration 30s

# Collab front-door soak: seeded chaos rounds (drops, resets, dial
# failures, partition pulses) must complete the full multi-client edit
# workload via reconnect+RESUME and converge on the fault-free canonical
# fingerprint; a final overload round must shed visibly without losing
# or duplicating an acked edit.
soak-collab:
	$(GO) run ./cmd/soak -collab -duration 30s

# Bounded-memory soak: compressed long-lived rounds where the bounded run
# (history GC + WAL rotation + checkpoint pruning) must hold retained
# history, journal disk and post-GC heap flat while staying bit-identical
# to an unbounded reference run and to a full journal replay. Its last leg
# does the same for the sharded service: shard state (session watermarks,
# in-flight claims, retained root-log ops) and heap flat pass after pass.
soak-mem:
	$(GO) run ./cmd/soak -mem -duration 30s

# Sharded-service smoke (<15s of runtime): one trimmed pass of the full
# battery — 1/2/4-shard clean runs over memnet, a seeded-chaos round on
# the inter-shard fabric, and a SIGKILL+resume of one journaled shard —
# each verified against the single-process reference fingerprints. The
# nightly job runs the full 100k-op pass.
soak-shard:
	$(GO) run ./cmd/soak -shard -shard-ops 4000 -duration 1ms

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

# Deep exploration for the nightly job: big random-walk budgets, a
# GOMAXPROCS sweep, crash-point sweeps on the journaled fixture, and
# failing seeds persisted under explore-seeds/ for artifact upload.
explore-deep:
	mkdir -p explore-seeds
	$(GO) run ./cmd/explore -scenario fanout -schedules 512 -procs 1,2,4,8 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario anyorder -schedules 256 -procs 1,4 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario abortsync -schedules 256 -procs 1,4 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario fanout -schedules 16 -crash -crash-points 5 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario chaos -schedules 128 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario churn -strategy exhaustive -schedules 4000 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario churn -schedules 16 -crash -crash-points 3 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario session -strategy exhaustive -schedules 128 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario compact -strategy exhaustive -schedules 2048 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario compact -schedules 8 -crash -crash-points 5 -segment-bytes 256 -retain-ckpts 1 -seeds explore-seeds
	$(GO) run ./cmd/explore -scenario shard -strategy exhaustive -schedules 64 -seeds explore-seeds
	$(GO) run ./cmd/soak -churn -duration 60s
	$(GO) run ./cmd/soak -shard -duration 1s
	$(GO) run ./cmd/soak -collab -duration 120s
	$(GO) run ./cmd/soak -explore -duration 120s
	$(GO) run ./cmd/soak -mem -duration 120s

# Elastic-cluster churn smoke (<10s of runtime): a bounded exhaustive
# enumeration of membership schedules (join/drain/leave/kill × explored
# placements) plus a burst of coordinator SIGKILL/resume churn with
# fingerprint verification.
churn:
	$(GO) run ./cmd/explore -scenario churn -strategy exhaustive -schedules 300
	$(GO) run ./cmd/soak -churn -duration 4s

# Compaction smoke (<15s of runtime): exhaustively enumerate the compact
# scenario's decision space (GC policy × abort × drain × MergeAny pick
# order must land on one fingerprint), crash-sweep it with forced WAL
# rotation + checkpoint pruning, and run a short bounded-memory soak.
compact:
	$(GO) run ./cmd/explore -scenario compact -strategy exhaustive -schedules 2048
	$(GO) run ./cmd/explore -scenario compact -schedules 4 -crash -segment-bytes 256 -retain-ckpts 1
	$(GO) run ./cmd/soak -mem -duration 8s

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
