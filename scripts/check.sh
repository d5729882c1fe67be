#!/bin/sh
# check.sh — tier-1 verification plus the merge gates in one command.
# Usage: scripts/check.sh   (or: make check; CI runs exactly this)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== examples build =="
# ./... covers these too, but the explicit step keeps the gate visible: every
# example must keep compiling, and each must say which paper figure/table it
# reproduces (the package-comment lint below checks the comment exists).
go build ./examples/...

echo "== simlint =="
# Repo-specific analyzers, one per ARCHITECTURE.md contract clause:
# nosyncpool (engine-owned free lists only), nowallclock (simulated time is
# a function of the seed), maporder (no nondeterministic map iteration),
# noclosuresched (pooled ScheduleCall over per-event closures), poolretain
# (pooled transport objects stay with their owner packages), pkgdoc
# (every package documents its role), and — over the module call graph —
# servebound (no engine call reachable from an HTTP handler), hotalloc (no
# allocation site reachable from an event-dispatch root), staledirective
# (every annotation still suppresses something). The run is timed: the whole
# suite, call-graph construction included, must finish within 5 seconds so
# linting stays cheap enough to gate every merge.
lint_start=$(date +%s)
go run ./cmd/simlint ./...
lint_end=$(date +%s)
lint_secs=$((lint_end - lint_start))
echo "simlint: ${lint_secs}s"
if [ "$lint_secs" -gt 5 ]; then
	echo "simlint exceeded the 5s budget (${lint_secs}s): the suite must stay cheap enough to gate every merge" >&2
	exit 1
fi

echo "== simlint suppressions =="
# The //simlint: annotation inventory must be clean: every directive names
# an analyzer in the suite and still suppresses at least one finding
# (staledirective reports the same conditions as diagnostics; this step
# prints the audited inventory for the log).
go run ./cmd/simlint -suppressions ./...

echo "== go test =="
go test ./...

echo "== sweep determinism smoke (fresh vs Reset-reuse vs parallel) =="
# Byte-equality across the from-scratch, serial-reuse, and pooled runners
# for every reuse mechanism: fig3b/fig5a (cluster cache), table5c
# (mpisim engine cache), spc (raidsim system cache). A nondeterministic
# merge or a state field missed by a Reset fails here before it can corrupt
# a figure.
go test -count=1 -run 'TestSweepResetAndParallelDeterminism' ./internal/bench
# The same equality under a fixed fault model: impaired sweeps (jittered
# fig3b, lossy ftbcast) must be byte-identical across fresh, Reset-reuse,
# and parallel runs, fault counters included.
go test -count=1 -run 'TestImpairedSweepDeterminism' ./internal/bench
# A sweep with failing points must report the same first error and the
# same fault counters from every shape: serial, Fresh and pooled runs all
# run every point.
go test -count=1 -run 'TestSweepShapesAgreeOnFailure' ./internal/bench

echo "== recovery under delay (Table 5c, scale 8, loss-free impairments) =="
# On a network that only delays packets, rendezvous recovery must neither
# give up nor storm: zero give-ups, fewer retransmits than replayed
# messages, and under 5% of them under plain jitter.
go test -count=1 -run 'TestTable5cRecoveryUnderDelay' ./internal/bench
# Two ranks: a lost ack costs exactly one RTS resend and one match, a
# receive-only rank adapts its pull timer to a slow path, and at loss=0.25
# pull timeouts must not hold a rank's RTO at the backoff cap.
go test -count=1 -run 'TestLostAckResendsRTSOnce|TestOneWayDelayAdaptsPullTimer|TestHeavyLossKeepsTimersOffTheCap' ./internal/mpisim
# Experiment-level concurrency in spinbench must match serial stdout.
go test -count=1 -run 'TestSerialVsConcurrentExperimentsByteIdentical' ./cmd/spinbench
# The shapes above agree with each other; this pins their absolute bytes.
# Table 5c's CSV and fault counters at scale 8, plain and lossy, must hash
# to the recorded SHA-256, which holds the (at, stamp, pri, seq) order.
go test -count=1 -run 'TestTable5cOrderGolden' ./internal/bench

echo "== impairment-grammar fuzz smoke (FuzzParseImpairment, 5s) =="
# Short native-fuzz pass over the -impair spec parser: never panics, and
# Key() stays a canonical re-parse fixed point (the property the result
# cache keys depend on).
go test -run '^$' -fuzz 'FuzzParseImpairment' -fuzztime 5s ./internal/netsim

echo "== event-queue order fuzz smoke (FuzzEngineOrder, 5s) =="
# Short native-fuzz pass over engine op scripts: the radix event queue must
# pop exactly the (at, stamp, pri, seq) sequence of the former 4-ary heap,
# kept as the reference in internal/sim/heapref_test.go.
go test -run '^$' -fuzz 'FuzzEngineOrder' -fuzztime 5s ./internal/sim

echo "== HPU placement fuzz smoke (FuzzIntervalPlacement, 5s) =="
# Short native-fuzz pass over Charge-shaped scripts: IntervalPool's one-pass
# placement (early stop, tail gallop) must pick exactly the server and start
# of k naive first-fit servers, across list prunes.
go test -run '^$' -fuzz 'FuzzIntervalPlacement' -fuzztime 5s ./internal/sim

echo "== alloc budgets (engine schedule / transport / retransmit / Table5c / Fig5a / SPC) =="
# Ceilings from BENCH_core.json: 0 allocs per schedule+dispatch, <= 7 per
# 256-packet message, 0 per lossy reliable put in steady state, the
# post-program-pooling Table 5c budget, the post-triggered-op-pooling
# Fig 5a budget, and the post-portals-pooling SPC budget.
go test -count=1 -run 'TestAllocBudgets' .

echo "== perf smoke (BenchmarkFig3b, 1x) =="
go test -run='^$' -bench=BenchmarkFig3b -benchtime=1x -benchmem .

echo "== fig7a wall-clock gate =="
# The vectorized datatype scatter keeps Fig 7a under 200 ms at benchScale;
# a return of the ~6 s per-segment regression fails the 2 s budget.
go test -count=1 -run 'TestFig7aWallClock' .

echo "== alloc smoke (BenchmarkClusterSendLarge, hot path) =="
go test -run='^$' -bench=BenchmarkClusterSendLarge -benchtime=100x -benchmem ./internal/netsim

echo "== spinserve smoke (serve vs CLI byte-identity + cache hit) =="
# End-to-end over a real socket with version-stamped binaries: start
# spinserve, POST a small experiment, diff the CSV byte-for-byte against
# the same build's spinbench -csv, then re-request and require a cache hit
# (X-Cache: hit) with identical bytes. Runs in every CI matrix job because
# CI runs this script.
SMOKEDIR=$(mktemp -d)
trap 'rm -rf "$SMOKEDIR"' EXIT
VERSION=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
go build -ldflags "-X repro/internal/buildinfo.Version=$VERSION" -o "$SMOKEDIR/spinserve" ./cmd/spinserve
go build -ldflags "-X repro/internal/buildinfo.Version=$VERSION" -o "$SMOKEDIR/spinbench" ./cmd/spinbench
go run ./scripts/servesmoke "$SMOKEDIR/spinserve" "$SMOKEDIR/spinbench"

echo "check.sh: all green"
