#!/bin/sh
# check.sh — the repo's pre-merge gate: formatting, vet, the
# race-enabled test suite (including the chaos harness and its safety
# oracle), the nested perfbench module, a one-iteration benchmark
# smoke, and short fuzz smokes over the wire/identifier parsers, the
# Paxos acceptor rules, the log record codec, segment-log recovery,
# the kvstore update-set encoder and the v1 body codecs.
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

echo "== non-test Go lines (information only) =="
./scripts/loc.sh

echo "== staticcheck =="
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
else
    echo "SKIPPED: staticcheck not installed (CI runs it; go install honnef.co/go/tools/cmd/staticcheck@latest to run locally)"
fi

echo "== layering =="
# The daemon, the router and the serving package do not link the
# simulator, and the client library links neither the simulator nor
# the live runtime.
deps=$(go list -deps ./cmd/twopcd ./cmd/twopcrouter ./internal/server)
if echo "$deps" | grep -qx 'repro/internal/core'; then
    echo "twopcd, twopcrouter or internal/server links repro/internal/core" >&2
    exit 1
fi
deps=$(go list -deps ./client)
if echo "$deps" | grep -qx 'repro/internal/core\|repro/internal/live'; then
    echo "the client library links repro/internal/core or repro/internal/live" >&2
    exit 1
fi

echo "== go test -race ./... =="
go test -race ./...

echo "== last-agent sweep (short tier) =="
# The §4 Last Agent path under the chaos schedules on both engines,
# judged by the safety oracle (the full tier runs in go test above).
go test -count=1 -short -run '^TestLastAgentSweep$' ./internal/check

echo "== per-transaction input order (50 race runs) =="
# A last agent must answer a repeated delegation from the decision the
# first one made; handled out of order, a presumed-abort repeat aborts
# a transaction everyone voted yes on. The order shows only under
# scheduling, hence the repeats.
go test -race -count=50 -run 'TestLiveLastAgentResolvesDoubt|TestLiveLastAgentBackToBackDelegation' ./internal/live

echo "== answered at the decision, voted with the stage reply, combined writers (20 race runs) =="
# PA and Basic 2PC commits return before their acks: a get right after
# a put still reads it, damage on an off-path ack is still counted, the
# round's table entry retires at the answer with its acks owed to the
# pinned decided entry (no goroutine per commit), and the participant's
# resender reaches a subordinate that dropped the first commit. Their shards vote in
# the /v1/stage reply: no Prepare reaches a volunteer, and one a later
# stage failure aborts is released through the protocol with nothing
# left in doubt. A read-only slice staged ahead of another keeps its
# locks to its Prepare, so a concurrent write-skew schedule stays
# serializable. An abort is told to no read-only voter, which keeps
# nothing. The audit stays exact while the coordinator's round
# (protocol.Coord) hands over to its last-agent resolver. The log's
# forcers and the TCP transport's senders combine on their own
# goroutines: a lone forcer flushes inline, queued forces share their
# leader's flush, a crash frees a lingering batch, concurrent senders
# keep their order, a failed write redials, and Close frees a stalled
# write. A kvstore commit that makes a compaction due returns while the
# snapshot is still being written, and recovery after background
# compactions equals the store. The stage transport pools its
# connections with no goroutine each, redials one its peer closed,
# reuses one after a chunked or 409 reply, drops one a cancel cut, and
# never sends a request twice.
go test -race -count=20 -run 'TestV1ReadYourWrites|TestLiveOffPathAckDamage|TestLiveEarlyAnswerHygiene|TestV1UnsolicitedVotes|TestV1AbortAfterVolunteer|TestV1VolunteerKeepsTwoPhaseLocking|TestV1AbortSkipsReadOnlyShard|TestLiveConformanceAllVariants|TestLiveConformanceAbortPath|TestLiveConformanceVolunteers|TestPipelineLoneForcerFlushesInline|TestPipelineQueuedForcesShareOneFlush|TestPipelineCrashWhileLeaderLingers|TestTCPConcurrentSendersKeepTheirOrder|TestTCPRedialsRestartedPeer|TestTCPCloseUnblocksStalledSend|TestLiveEarlyCommitRetiresAtAnswer|TestLiveResenderReachesDroppedCommit|TestCommitReturnsWhileSnapshotBlocked|TestRecoveryAfterBackgroundCompactions|TestStageConnectionsReused|TestStageTransport|TestStageRequestNeverResent|TestStageRequestOneWrite' ./internal/server ./internal/live ./internal/audit ./internal/wal ./internal/netsim ./internal/kvstore

echo "== one Paxos Commit leader, both engines (20 race runs) =="
# protocol.PaxosLead sequences the leader and live drives it from its
# inbox and retry alarm: the fast path's exact costs (four nodes, and
# two with the coordinator the one acceptor), the recovery ballots, a
# free instance chosen No, and the planted acceptor-force and quorum
# bugs still convicted. Timing shows only under scheduling, hence the
# repeats.
go test -race -count=20 -run 'TestLivePaxos|TestPaxosLeadRound|TestChaosLivePaxosRecoveryBallots|TestInjectedAcceptorForceBugLive|TestInjectedQuorumBugLive|TestPaxosFreeInstance' ./internal/live ./internal/check ./internal/protocol

echo "== one restart rule, both engines (20 race runs) =="
# protocol.TxLog.Comeback is the classic restart for both engines: the
# table of crash points crossed with the six variants, run on each
# engine from the same log records, and the runtime's replay of the
# record forms on disk. A live restart sends its redrives and repeated
# delegations from background goroutines, so an ordering bug shows only
# under scheduling, hence the repeats.
go test -race -count=20 -run 'TestRestartTable|TestReplayLegacyLog' ./internal/check ./internal/live

echo "== one resend path for owed acks (20 race runs) =="
# Every acknowledged outcome (an Early or PN commit, an acked abort, a
# restart's redrive, a last agent's decision) is owed to its pinned
# decided-table entry, and the one resender sends it again until the
# ack deadline. A lost first copy and the ack that races the resend
# show only under scheduling, hence the repeats. TestForgetSoak, which
# takes ~30 s under -race, runs once in the race step above.
go test -race -count=20 -run 'TestLiveResenderReaches|TestForget|TestLiveOffPathAckDamage|TestLiveEarlyAnswerHygiene|TestReplayLegacyLog|TestLiveLastAgentResolvesDoubt|TestLiveCrashPointSweep' -skip 'TestForgetSoak' ./internal/live ./internal/check

echo "== perfbench module (vet + test) =="
# perfbench is a nested module: the root go vet/test skip it, though
# it imports internal packages (server, wal, live, router) directly.
(cd perfbench && go vet ./... && go test ./...)

echo "== benchmark smoke (compile + one iteration each) =="
# The same step CI runs: every benchmark builds and survives one
# iteration, including BenchmarkLive1PCVsBasicTCP, whose p50/p99 keys
# cmd/benchdiff gates.
go test -run='^$' -bench=. -benchtime=1x ./...

echo "== serving-path allocation rung =="
# The rung below perfbench: three in-process daemons, 200 3-shard
# commits through the client library, allocs/op and B/op printed.
go test -run '^$' -bench BenchmarkV1CommitFanout -benchtime 200x -benchmem ./internal/server

echo "== read-mostly allocation rung =="
# The same three daemons, one put and two gets per commit: the shards
# that only read vote read-only. forces/commit and flows/commit sit
# below the fanout rung's.
go test -run '^$' -bench BenchmarkV1CommitReadMostly -benchtime 200x -benchmem ./internal/server

echo "== wal fsync smoke =="
# Proves real fdatasyncs reach the device on this filesystem (and
# that -wal-fsync=false really elides them) before anyone trusts a
# durable benchmark number from this machine.
go test -run='^TestFsyncSmoke$' -count=1 ./internal/wal

echo "== overload admission smoke =="
# Proves the admission path sheds by priority class, surfaces
# retry_after, and keeps the conformance audit exact while shedding.
go test -run='^TestServerOverload' -count=1 ./internal/server

echo "== overload survival smoke (real daemons) =="
# The full contract against real daemons: a tiny overloadbench sweep
# (x0.5 baseline + x5 survival point) that enforces the goodput floor
# and p99 ceiling and drain-audits every node.
DURATION=2s MULTIPLES='0.5 5' OUT=/tmp/overload-smoke.json ./scripts/overloadbench.sh

echo "== fuzz smokes (10s each) =="
go test -run='^$' -fuzz=FuzzDecode -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz=FuzzBinaryVsGobRoundTrip -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz=FuzzPaxosAcceptor -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz=FuzzParseTxID -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz=FuzzLogRecord -fuzztime=10s ./internal/protocol
go test -run='^$' -fuzz=FuzzSegmentRecover -fuzztime=10s ./internal/wal
go test -run='^$' -fuzz=FuzzUpdateSet -fuzztime=10s ./internal/kvstore
# The v1 body codecs against encoding/json; minimizing a new input from
# the 1 MiB seed would take the whole budget, so minimization is capped.
go test -run='^$' -fuzz=FuzzV1Bodies -fuzztime=10s -fuzzminimizetime=2s ./internal/api

echo "All checks passed."
