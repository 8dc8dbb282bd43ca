#!/usr/bin/env bash
# CI gate: vet, build, then the full test suite under the race detector.
# Run from the repo root. Any failure fails the script.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> go vet ./..."
go vet ./...

# Docs gates: README/ARCHITECTURE must not reference dead flags, symbols,
# or tests; every exported symbol in the audited packages must carry a doc
# comment (units + determinism policy, see ARCHITECTURE.md).
echo "==> docs gate (scripts/check_docs.sh)"
./scripts/check_docs.sh

echo "==> godoc coverage (tools/doccheck)"
go run ./tools/doccheck ./internal/placer ./internal/metacompiler ./internal/runtime ./internal/daemon .

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The parallel placement engine, experiment runner (incl. the parallel sim,
# failover, churn and flow-scale sweeps), batched simulator, the
# reconfiguration stack (chaos + churn plans, incremental rewire), and the
# million-flow state layer (sharded NF tables, arena flow schedules) get an
# extra race pass with their property tests un-shortened (the ./... run
# above may cache).
echo "==> go test -race -count=1 ./internal/placer ./internal/experiments ./internal/runtime ./internal/chaos ./internal/churn ./internal/metacompiler ./internal/nf ./internal/trafficgen ./internal/daemon"
go test -race -count=1 ./internal/placer ./internal/experiments ./internal/runtime ./internal/chaos ./internal/churn ./internal/metacompiler ./internal/nf ./internal/trafficgen ./internal/daemon

# Control-plane guards: the daemon's reconcile properties (idempotence,
# convergence over random op sequences, rejected-spec isolation, snapshot
# round-trip) and the end-to-end daemon scenario (fake clock, unix-socket
# API, chaos crash, Prometheus endpoint) get a named race pass so the
# lemurd path cannot be skipped by test caching.
echo "==> control-plane daemon guards (race)"
go test -race -count=1 \
  -run 'TestReconcileIdempotent|TestConvergenceRandomSequences|TestRejectedSpecIsolation|TestSnapshotRoundTrip|TestEndToEndDaemon|TestReconcileSweepDeterministic' \
  ./internal/daemon ./internal/experiments

# Fuzz smoke: ten seconds of FuzzReplace exercises the incremental
# re-placement invariants (pinning, no-failure identity) beyond the seed
# corpus; ten seconds of FuzzChurnPlan exercises the churn grammar's
# parse/render round-trip.
echo "==> fuzz smoke (FuzzReplace, 10s)"
go test -run '^$' -fuzz 'FuzzReplace' -fuzztime=10s ./internal/placer

echo "==> fuzz smoke (FuzzChurnPlan, 10s)"
go test -run '^$' -fuzz 'FuzzChurnPlan' -fuzztime=10s ./internal/churn

# Ten seconds of FuzzFlowSchedule exercises the arena flow-schedule
# round-trip: regeneration determinism, birth-order/hash consistency, and
# replay-window equality against a brute-force liveness scan.
echo "==> fuzz smoke (FuzzFlowSchedule, 10s)"
go test -run '^$' -fuzz 'FuzzFlowSchedule' -fuzztime=10s ./internal/trafficgen

# Coverage gates: statement coverage must not fall below each floor. The
# total floor is the recorded baseline (80.0% when the gate was added) less
# a margin for counter noise; "all" takes the toolchain's own total from
# `go tool cover -func`. Each other row aggregates the profile lines whose
# file matches its regex, so one stack cannot silently lose its tests:
#   churn    grammar, Admit/Retire, AdmitChains/RetireChains, churn sweep,
#            churn simulation
#   scale    sharded NF tables, arena flow schedules, FlowScale plumbing,
#            scale sweep (the million-flow state layer)
#   deadline EDF scheduler trees, metacompiler slacks, p99 admission,
#            simulator drain order + quantiles, latency sweep
#   daemon   spec validation, reconcile loop, snapshot, watch dir,
#            status/API surface (the lemurd path)
echo "==> coverage gates"
go test -coverprofile=/tmp/lemur-cover.out ./... > /dev/null
while read -r name files floor; do
  if [ "$files" = all ]; then
    pct=$(go tool cover -func=/tmp/lemur-cover.out | awk '/^total:/ {gsub(/%/, "", $NF); print $NF}')
  else
    pct=$(RE="$files" awk '$1 ~ ENVIRON["RE"] { total += $2; if ($3 > 0) covered += $2 }
      END { if (total > 0) printf "%.1f", 100 * covered / total; else print 0 }' /tmp/lemur-cover.out)
  fi
  echo "    ${name} coverage: ${pct}% (floor ${floor}%)"
  awk -v t="$pct" -v f="$floor" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || {
    echo "ci: ${name} coverage ${pct}% fell below the ${floor}% floor" >&2
    exit 1
  }
done <<'FLOORS'
total    all                                                                    79.0
churn    churn                                                                  75.0
scale    internal/nf/(flowtab|nat|monitor|dedup|lb|reference)\.go|internal/trafficgen/|internal/runtime/flowscale\.go|internal/experiments/scalesweep\.go  75.0
deadline internal/bess/scheduler\.go|internal/metacompiler/deadline\.go|internal/placer/p99\.go|internal/runtime/(simedf|quantile)\.go|internal/experiments/latencysweep\.go  75.0
daemon   internal/daemon/                                                       75.0
FLOORS

# Allocation-regression guard: the arena-backed simulator must stay under its
# fixed allocs-per-packet budget (testing.AllocsPerRun inside the test), the
# million-flow smoke must hold steady state under 0.5 allocs/packet, and the
# SmartNIC interpreter must allocate nothing per packet.
echo "==> simulator allocation guard"
go test -run 'TestSimulateAllocBudget' -count=1 ./internal/runtime

echo "==> million-flow allocation guard"
go test -run 'TestMillionFlowAllocBudget' -count=1 ./internal/runtime

echo "==> SmartNIC interpreter allocation guard"
go test -run 'TestRunChaChaAllocFree' -count=1 ./internal/smartnic

# Parallel-simulation guards: the sharded engine must stay byte-identical
# to the serial engine under the race detector at worker counts up to 8 —
# across random topologies, mid-run failover, and churn re-partitions —
# and the CLI-facing worker/flow validation must keep rejecting bad input.
# Then the parallel path holds its own allocs-per-packet budget (< 0.5,
# measured at workers=4 on a multi-shard deployment).
echo "==> parallel simulation byte-identity (race, workers up to 8)"
go test -race -count=1 \
  -run 'TestSimulateParallel(MatchesReference|FailoverByteIdentity|ChurnByteIdentity)|TestSimulateWorkersValidation|TestBuildSimPartitionInvariants' \
  ./internal/runtime

echo "==> parallel simulation allocation guard"
go test -run 'TestSimulateParallelAllocBudget' -count=1 ./internal/runtime

# Deadline-scheduling guards: the EDF scheduler-tree builder and its
# Deadline node get a named race pass; the simulator's deadline-free
# byte-identity (50+ random topologies × policies × workers), the
# deadline-bearing fast-vs-reference identity, and the quantile-select
# property tests run un-cached alongside it.
echo "==> deadline scheduling (bess scheduler race pass + simulator identity)"
go test -race -count=1 -run 'TestSchedulerTrees|TestCapacityModel' ./internal/bess
go test -race -count=1 \
  -run 'TestDeadlineFreePolicyByteIdentity|TestSimulateDeadlineMatchesReference|TestSchedPolicyValidation|TestQuantileSelect' \
  ./internal/runtime

# Ten seconds of FuzzChainSpec exercises the nfspec grammar — the slo block
# (tmin/tmax/dmax/d_max_p99 with unit suffixes and bad-value rejection),
# aggregates, NF args, and edges — beyond the seed corpus.
echo "==> fuzz smoke (FuzzChainSpec, 10s)"
go test -run '^$' -fuzz 'FuzzChainSpec' -fuzztime=10s ./internal/nfspec

# Branch-and-bound soundness: the Optimal placer's pruning/symmetry property
# tests (byte-identity vs the exhaustive reference, budget semantics,
# prune-order-independent reasons) and the place-scale sweep get a named
# race pass so the search invariants cannot be skipped by test caching.
echo "==> branch-and-bound soundness (race)"
go test -race -count=1 \
  -run 'TestBranchAndBoundMatchesExhaustiveProperty|TestBudgetCappedNeverBeatsExhaustive|TestOptimalSearchStatsDeterministic|TestSymmetryCollapseInvariant|TestFirstReasonPruneOrderIndependent|TestOptimalTruncationFlag' \
  ./internal/placer
go test -race -count=1 -run 'TestPlaceScaleSweep' ./internal/experiments

# Placement cost guard: the Optimal solve on the benchmark fixture must stay
# under its alloc and wall-clock ceilings (~2x headroom over baseline), so a
# pruning or binder regression fails here instead of doubling solve time.
echo "==> optimal placement cost guard"
go test -run 'TestPlaceOptimalCostGuard' -count=1 .

# Benchmark smoke: one iteration of the placement and simulator
# micro-benchmarks proves the bench harness (and the -bench-out path it
# shares) still compiles and runs.
echo "==> benchmark smoke"
go test -run '^$' -bench 'BenchmarkPlace(Lemur|Optimal)|BenchmarkSimulate(Small|Medium)' -benchtime 1x -benchmem .

echo "ci: all checks passed"
