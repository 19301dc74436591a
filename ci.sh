#!/usr/bin/env bash
# Tier-1 CI gate for the PDC-Query reproduction.
#
#   ./ci.sh          build + full test suite + named fault-tolerance gate
#
# Falls back to `--offline` when the crates.io registry is unreachable
# (the workspace vendors API-compatible shims under compat/, so an
# offline build is fully supported).
set -euo pipefail
cd "$(dirname "$0")"

OFFLINE=""
if ! cargo metadata --format-version 1 >/dev/null 2>&1; then
    echo "ci: registry unreachable, using --offline"
    OFFLINE="--offline"
fi

echo "== build (release) =="
cargo build --release $OFFLINE

echo "== test suite =="
# `default-members` in Cargo.toml makes this cover every crate of the
# workspace; the total is printed so a drop in coverage is visible.
test_log=$(mktemp)
cargo test -q $OFFLINE 2>&1 | tee "$test_log"
total_tests=$(grep -o '^test result: ok\. [0-9]* passed' "$test_log" | awk '{s += $4} END {print s + 0}')
rm -f "$test_log"
echo "ci: $total_tests tests passed in the workspace test suite"

echo "== fault-tolerance gate =="
cargo test -q $OFFLINE -- fault

echo "== integrity gate =="
cargo test -q $OFFLINE -- integrity
# Corruption smoke: a run with 5% of regions corrupted must exit 0 and
# return the same selection (hits + runs) as the clean run.
cargo build --release $OFFLINE -p pdc-cli
PDC=target/release/pdc
SMOKE_Q="2.1 < Energy < 2.2"
SMOKE_ARGS="--particles 100000 --servers 4 --seed 42"
clean_hits=$($PDC query "$SMOKE_Q" $SMOKE_ARGS | grep -o '[0-9]* hits ([0-9]* runs)')
corrupt_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --corrupt-regions 0.05 --fault-seed 7)
corrupt_hits=$(echo "$corrupt_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$clean_hits" != "$corrupt_hits" ]; then
    echo "ci: integrity smoke FAILED: clean '$clean_hits' vs corrupt '$corrupt_hits'" >&2
    exit 1
fi
echo "$corrupt_out" | grep -q '^integrity:' || {
    echo "ci: integrity smoke FAILED: no integrity report in corrupt run" >&2
    exit 1
}
echo "integrity smoke: '$corrupt_hits' identical under 5% corruption"

echo "== batch-throughput gate =="
# The concurrent query-series engine must beat the sequential loop by
# >= 3x wall clock on a 32-query overlapping series (the bin exits
# non-zero below that floor) while producing bit-identical results
# (asserted inside the bin). A CLI batch smoke checks the user-facing
# path end to end: batched hits must equal the single-run hits.
cargo build --release $OFFLINE -p pdc-bench
target/release/throughput /tmp/ci_throughput.json
batch_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --queries 8)
batch_hits=$(echo "$batch_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$clean_hits" != "$batch_hits" ]; then
    echo "ci: batch smoke FAILED: single '$clean_hits' vs batched '$batch_hits'" >&2
    exit 1
fi
echo "$batch_out" | grep -q '^batch: 8 queries' || {
    echo "ci: batch smoke FAILED: no throughput report in batch run" >&2
    exit 1
}
echo "batch smoke: '$batch_hits' identical across 8-query batch"

echo "== adaptive-strategy gate =="
# PDC-A must return exactly the full-scan selection (operator choices
# may differ per region; answers may not), and the cost-model gate in
# the bench bin asserts the adaptive series total is no worse than the
# best fixed strategy at the recorded baseline scale.
adaptive_hits=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --strategy A | grep -o '[0-9]* hits ([0-9]* runs)')
fullscan_hits=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --strategy F | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$adaptive_hits" != "$fullscan_hits" ]; then
    echo "ci: adaptive smoke FAILED: adaptive '$adaptive_hits' vs full-scan '$fullscan_hits'" >&2
    exit 1
fi
echo "adaptive smoke: '$adaptive_hits' identical to full scan"
explain_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --strategy A --explain)
echo "$explain_out" | grep -q '^explain: strategy PDC-A' || {
    echo "ci: explain smoke FAILED: no explain header in --explain run" >&2
    exit 1
}
echo "$explain_out" | grep -q 'est(lo..hi)' || {
    echo "ci: explain smoke FAILED: no operator table in --explain run" >&2
    exit 1
}
echo "explain smoke: operator table rendered"
target/release/adaptive /tmp/ci_adaptive.json

echo "== ingest gate =="
# Streaming ingest: a query running mid-ingest must be bit-identical to
# the same query on a store imported whole at the extent it planned
# against, for every strategy, with and without faults/corruption.
cargo test -q $OFFLINE -p pdc-query --test ingest_consistency
cargo test -q $OFFLINE -p pdc-odms --test persist_negative
cargo test -q $OFFLINE -p pdc-histogram --test histogram_props
# Bench-bin correctness gate (exits non-zero on any divergence from the
# sealed baselines), then a CLI smoke that appends 10% of the particles
# across 3 batches mid-series and asserts every extent sealed-consistent.
target/release/ingest /tmp/ci_ingest.json
ingest_out=$($PDC ingest "$SMOKE_Q" $SMOKE_ARGS --append-batches 3 --append-fraction 0.1)
echo "$ingest_out" | grep -q 'ingest gate: PASS' || {
    echo "ci: ingest smoke FAILED:" >&2
    echo "$ingest_out" >&2
    exit 1
}
echo "$ingest_out" | tail -n 1

echo "== pruning gate =="
# Hierarchical region directory + joint bounds: pruning must stay
# advisory and sound (bit-identical selections and simulated costs with
# the directory on or off, all strategies, under faults + corruption),
# and the bench bin asserts the conjunctive 3-D window workload admits
# >= 2x fewer regions than 1-D min/max pruning.
cargo test -q $OFFLINE -p pdc-query --test pruning_props
target/release/pruning /tmp/ci_pruning.json
dir_out=$($PDC query "Energy > 2.0 AND 100 < x < 200" $SMOKE_ARGS --joint Energy,x --explain)
echo "$dir_out" | grep -q '^joint bounds: registered (Energy,x)' || {
    echo "ci: pruning smoke FAILED: no joint-registration report" >&2
    exit 1
}
echo "$dir_out" | grep -q 'directory: .* killed joint' || {
    echo "ci: pruning smoke FAILED: no directory stats in --explain run" >&2
    exit 1
}
nodir_hits=$($PDC query "Energy > 2.0 AND 100 < x < 200" $SMOKE_ARGS --no-directory | grep -o '[0-9]* hits ([0-9]* runs)')
dir_hits=$(echo "$dir_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$dir_hits" != "$nodir_hits" ]; then
    echo "ci: pruning smoke FAILED: directory '$dir_hits' vs --no-directory '$nodir_hits'" >&2
    exit 1
fi
echo "pruning smoke: '$dir_hits' identical with and without the directory"

echo "== replication gate =="
# K-way replication: the kill-matrix tests (every strategy x k x kills
# combination bit-identical or a typed RetriesExhausted), the bench
# bin's own gate (k >= 2 kill degradation <= 1.1x the no-kill series,
# recovery lane silent under placement), and a CLI smoke of the
# replica-aware routing + elastic membership surface. The smoke query
# touches every region so the kill probe actually fires mid-evaluation.
cargo test -q $OFFLINE -- replication
target/release/replication /tmp/ci_replication.json
REPL_Q="Energy > 0"
plain_hits=$($PDC query "$REPL_Q" $SMOKE_ARGS | grep -o '[0-9]* hits ([0-9]* runs)')
repl_out=$($PDC query "$REPL_Q" $SMOKE_ARGS --replicas 2 --kill-servers 1 --fault-seed 3)
repl_hits=$(echo "$repl_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$plain_hits" != "$repl_hits" ]; then
    echo "ci: replication smoke FAILED: unreplicated '$plain_hits' vs killed k=2 '$repl_hits'" >&2
    exit 1
fi
echo "$repl_out" | grep -q 'failed over to live replicas' || {
    echo "ci: replication smoke FAILED: no failover report in killed run" >&2
    exit 1
}
echo "$repl_out" | grep -q '^rebuild: redundancy restored' || {
    echo "ci: replication smoke FAILED: no background-rebuild report in killed run" >&2
    exit 1
}
member_out=$($PDC query "$REPL_Q" $SMOKE_ARGS --replicas 2 --join-server --leave-server 0)
[ "$(echo "$member_out" | grep -c 'results unchanged: yes')" = 2 ] || {
    echo "ci: replication smoke FAILED: join/leave changed results:" >&2
    echo "$member_out" >&2
    exit 1
}
$PDC query "$SMOKE_Q" $SMOKE_ARGS --replicas 2 --explain | grep -q 'slot routes (slot' || {
    echo "ci: replication smoke FAILED: no per-slot route report in --explain run" >&2
    exit 1
}
echo "replication smoke: '$repl_hits' identical under kill, join, and leave"

echo "== out-of-core gate =="
# Spill tier: block files must roundtrip bit-exact and fail typed on
# damage, and a memory-budgeted store must answer every strategy
# bit-identically to an unbounded one (incl. simulated costs) across
# faults, corruption, batches, and streaming appends.
cargo test -q $OFFLINE -p pdc-blockstore
cargo test -q $OFFLINE -p pdc-query --test spill_equivalence
# Bench-bin gate (compression >= 2x, resident high-water <= budget with
# demotions observed, all strategies identical to unbounded), then a
# CLI smoke under a budget far below the dataset.
target/release/blockstore /tmp/ci_blockstore.json
spill_out=$($PDC query "$SMOKE_Q" $SMOKE_ARGS --memory-budget 256K)
spill_hits=$(echo "$spill_out" | grep -o '[0-9]* hits ([0-9]* runs)')
if [ "$clean_hits" != "$spill_hits" ]; then
    echo "ci: out-of-core smoke FAILED: unbounded '$clean_hits' vs budgeted '$spill_hits'" >&2
    exit 1
fi
echo "$spill_out" | grep -q '^out-of-core: resident high-water' || {
    echo "ci: out-of-core smoke FAILED: no spill report in budgeted run" >&2
    exit 1
}
echo "out-of-core smoke: '$spill_hits' identical under a 256K budget"

echo "== service gate =="
# Multi-tenant service loop: the equivalence suite (every admitted
# query bit-identical to a solo run under faults, corruption,
# replication, and spill), the bench bin's own gates (dispatch-order
# replay identical, late shared-scan joins observed, flood mix degrades
# well-behaved p99 <= 1.25x the uniform mix), and a CLI smoke replaying
# the committed 3-tenant trace through `pdc serve`.
cargo test -q $OFFLINE -p pdc-query --test service_equivalence
target/release/service /tmp/ci_service.json
serve_out=$($PDC serve --trace-file examples/service_trace.txt --particles 50000 --servers 4)
echo "$serve_out" | grep -q 'service equivalence: PASS' || {
    echo "ci: service smoke FAILED: no equivalence PASS in serve run:" >&2
    echo "$serve_out" >&2
    exit 1
}
echo "$serve_out" | grep -q 'late join(s)' || {
    echo "ci: service smoke FAILED: no shared-scan-group report in serve run" >&2
    exit 1
}
echo "$serve_out" | grep -Eq 'tenant +flood: .*\([1-9][0-9]* rejected' || {
    echo "ci: service smoke FAILED: flood tenant was never rejected:" >&2
    echo "$serve_out" >&2
    exit 1
}
echo "$serve_out" | tail -n 1

echo "== clippy gate =="
cargo clippy --release $OFFLINE --workspace --all-targets -- -D warnings

echo "== bench smoke (each benchmark body runs once) =="
PDC_KERNEL_BENCH_N=65536 cargo bench $OFFLINE -p pdc-bench -- --test

echo "ci: all gates green"
