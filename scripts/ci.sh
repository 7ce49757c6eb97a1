#!/usr/bin/env bash
# CI gate: build everything, vet, and run the full test suite under the
# race detector. The parallel experiment runner makes races possible in
# principle, so -race is part of the standard gate.
set -euo pipefail
cd "$(dirname "$0")/.."

go build ./...
go vet ./...

# Formatting gate: gofmt disagreements are build breaks here, not
# review nits.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "ERROR: gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

go test -race ./...

# Exact-zero allocation pins for the per-op hot paths and the crash-point
# entry capture (AppendEntries into a recycled slice), plus the
# steady-state bounds of the crash-point capture (snapshot stores
# recycle, so a capture allocates less than one table page), of
# crash-point recovery (the controller reboots in place, so RecoverVerify
# allocates under 8 KiB per point, and a whole-socket
# SystemSnapshot.RecoverVerify, whose shards reboot the same way and
# drain each buffer from the journal it was captured into, under
# 16 KiB per point per core), of a whole crash cell on a recycled
# rig (engine, stores and recovery state reset in place, so a warm cell
# allocates under 128 KiB), of RunBatch (zero allocations per warm call:
# the engine keeps one batch buffer across calls) and of the cache
# hierarchy's footprint (one word per modeled line). These
# carry a !race build tag — race instrumentation allocates on its own —
# so they need this uninstrumented pass to run at all.
go test -run 'ZeroAlloc|CaptureSteadyStateAlloc|RecoverVerifySteadyStateAlloc|SystemRecoverVerifySteadyStateAlloc|CrashCellSteadyStateAlloc|RunBatchSteadyStateAlloc|CacheFootprint' . \
    ./internal/crypto/ ./internal/nvm/ ./internal/crashsim/ ./internal/engine/ \
    ./internal/mem/ ./internal/core/

# Benchmarks must at least compile and run one iteration: a bench-only
# regression would otherwise go unnoticed until the next perf run.
go test -run '^$' -bench . -benchtime 1x ./...

# Differential fuzzers on their seed corpora: the fast SHA-512 and
# AES-NI OTP paths must agree with their hand-rolled references, the
# paged table and the persist buffer must agree with their map models,
# the cache model must agree with its move-to-front LRU reference, and
# every seeded corruption must be flagged, and every sealed record must
# either open to a payload that re-seals to the same bytes or be
# refused, on every gate run.
go test -run Fuzz ./internal/crypto/... ./internal/ptable/... \
    ./internal/pb/... ./internal/recovery/... ./internal/trace/... \
    ./internal/mem/... ./internal/seal/...

# Determinism gate: the table4 artifact must be byte-identical between a
# serial run and a parallel memoized run — the cell memo, the worker pool
# and trace sharing (every cell of a benchmark replays one generated
# trace) are pure replay optimizations and may never leak into output.
tmp=$(mktemp -d)
serve_pid=""
trap '[ -n "$serve_pid" ] && kill -9 "$serve_pid" 2>/dev/null; rm -rf "$tmp"' EXIT

# Examples gate: every examples/* program runs to completion. Each one
# exits non-zero when one of its own checks fails, and examples/multicore
# is the only runnable demo of the whole-socket recovery journal; all
# six together take about a second.
go build -o "$tmp/examples/" ./examples/...
for ex in "$tmp"/examples/*; do
    if ! "$ex" > "$tmp/example.out" 2>&1; then
        echo "ERROR: example $(basename "$ex") failed:" >&2
        cat "$tmp/example.out" >&2
        exit 1
    fi
done
echo "every example ran and passed its checks"
go build -o "$tmp/secpb-bench" ./cmd/secpb-bench
"$tmp/secpb-bench" -exp table4 -ops 5000 -parallel 1 -memo=false \
    > "$tmp/table4_serial.txt" 2>&1
"$tmp/secpb-bench" -exp table4 -ops 5000 -parallel 0 \
    > "$tmp/table4_parallel.txt" 2>&1
if ! diff -q "$tmp/table4_serial.txt" "$tmp/table4_parallel.txt"; then
    echo "ERROR: parallel memoized table4 differs from serial unmemoized" >&2
    exit 1
fi
echo "table4 identical: serial/-memo=false vs parallel/memoized"

# ... and across the wall-clock knobs: worker count and core count are
# strategies, never allowed to leak into the artifact bytes. (The
# engine's step path is diffed against its generic-interpreter oracle
# by TestKernelMatchesGeneric and TestCrashPointsMatchGeneric in the
# go test pass above.)
for knobs in "-parallel 8" "-parallel 4 -cores 1"; do
    # shellcheck disable=SC2086
    "$tmp/secpb-bench" -exp table4 -ops 5000 $knobs \
        > "$tmp/table4_knobs.txt" 2>&1
    if ! diff -q "$tmp/table4_parallel.txt" "$tmp/table4_knobs.txt"; then
        echo "ERROR: table4 differs under $knobs" >&2
        exit 1
    fi
done
echo "table4 identical across -parallel and -cores settings"

# Persistent cell-cache gate: a warm -memodir run must replay from disk
# byte-identically, and a corrupted record must be rejected and
# recomputed — never trusted — still yielding identical bytes.
"$tmp/secpb-bench" -exp table4 -ops 5000 -memodir "$tmp/memod" \
    > "$tmp/table4_cold.txt" 2>&1
"$tmp/secpb-bench" -exp table4 -ops 5000 -memodir "$tmp/memod" \
    > "$tmp/table4_warm.txt" 2>&1
if ! diff -q "$tmp/table4_cold.txt" "$tmp/table4_warm.txt"; then
    echo "ERROR: warm -memodir table4 differs from cold run" >&2
    exit 1
fi
if ! diff -q "$tmp/table4_parallel.txt" "$tmp/table4_warm.txt"; then
    echo "ERROR: -memodir table4 differs from uncached run" >&2
    exit 1
fi
# Flip one byte mid-record in every cached cell: all must be rejected.
for rec in "$tmp/memod"/*.spbc; do
    printf '\xff' | dd of="$rec" bs=1 seek=20 count=1 conv=notrunc status=none
done
"$tmp/secpb-bench" -exp table4 -ops 5000 -memodir "$tmp/memod" \
    > "$tmp/table4_corrupt.txt" 2>&1
if ! diff -q "$tmp/table4_cold.txt" "$tmp/table4_corrupt.txt"; then
    echo "ERROR: table4 differs after cache corruption (stale record trusted?)" >&2
    exit 1
fi
echo "table4 identical: cold vs warm vs corrupted -memodir"

# Multi-core smoke, race-clean: the cores=2 exhaustive crash matrix with
# both negative drain/merge-order controls, the multi-core crash-matrix
# golden (results/crash-matrix-multicore-seed42.json), the cross-core
# fault sweep, and the serial-vs-parallel core-stepping identity.
go test -race \
    -run 'TestSystemMatrixExhaustive|TestSystemMatrixGolden|TestSystemNegativePermuted|TestSystemFaultSweep|TestSystemSerialParallelIdentity|TestSystemSingleCore|TestDrainSystem' \
    ./internal/engine/ ./internal/crashsim/ ./internal/recovery/

# Multi-core determinism gate: the battery-sizing grid must be
# byte-identical between a serial unmemoized run and a parallel memoized
# run — core stepping and the cell memo are wall-clock strategies, never
# artifact bits.
"$tmp/secpb-bench" -exp multicore -ops 2000 -cores 1,2,4 -parallel 1 -memo=false \
    > "$tmp/multicore_serial.txt" 2>&1
"$tmp/secpb-bench" -exp multicore -ops 2000 -cores 1,2,4 -parallel 8 \
    > "$tmp/multicore_parallel.txt" 2>&1
if ! diff -q "$tmp/multicore_serial.txt" "$tmp/multicore_parallel.txt"; then
    echo "ERROR: multicore battery grid differs between serial and parallel runs" >&2
    exit 1
fi
echo "multicore battery grid identical: serial vs parallel"

# Crash-matrix smoke: every SecPB scheme survives a fixed-seed set of
# injected power failures on a short trace, recovering byte-identically
# to the golden model. The full-budget sweep is TestCrashMatrixFull.
go build -o "$tmp/secpb-crash" ./cmd/secpb-crash
"$tmp/secpb-crash" -schemes all -bench gcc -ops 1200 -points 30 -seed 42 \
    -out "$tmp/crash-matrix.json"
# The crash matrix must be identical to the checked-in golden: snapshot
# recycling, the verified-path memo, the recovery hash memo and journal
# resealing are wall-clock strategies and may not move a single injected
# point, drained entry or checked block.
if ! diff -q results/crash-matrix-seed42.json "$tmp/crash-matrix.json"; then
    echo "ERROR: crash matrix differs from results/crash-matrix-seed42.json" >&2
    exit 1
fi
echo "crash matrix identical to the checked-in seed-42 golden"

# Experiment golden: a cold run of every experiment must reproduce the
# checked-in artifact byte for byte, so no replay strategy (shared
# traces, cell memo, batch replay) can drift the paper's tables unnoticed.
"$tmp/secpb-bench" -exp all -ops 5000 > "$tmp/exp-all.txt" 2> /dev/null
if ! diff -q results/exp-all-ops5000.txt "$tmp/exp-all.txt"; then
    echo "ERROR: -exp all -ops 5000 differs from results/exp-all-ops5000.txt" >&2
    exit 1
fi
echo "every experiment identical to the checked-in ops-5000 golden"

# Degraded-mode smoke: the fixed-seed fault sweep (six schemes across
# clean / torn-write / bit-rot media) plus the nested battery-exhaustion
# crash tests, then a secpb-heal grid on faulty media under a budgeted
# battery. The full-length sweep runs without -short in the suite above.
go test -short -race -run 'TestFaultSweep|TestNested' ./internal/recovery/ ./internal/crashsim/
go build -o "$tmp/secpb-heal" ./cmd/secpb-heal
"$tmp/secpb-heal" -schemes all -bench gcc -ops 1500 -faultrate 0.05 -budget 3 \
    -seed 42 -out "$tmp/heal-matrix.json"
# The heal grid must be identical to the checked-in golden: triage's
# per-block classes, the boot-loop resume and the differential check may
# not move a single verdict or counter.
if ! diff -q results/heal-matrix-seed42.json "$tmp/heal-matrix.json"; then
    echo "ERROR: heal grid differs from results/heal-matrix-seed42.json" >&2
    exit 1
fi
echo "heal grid identical to the checked-in seed-42 golden"

# SPB2 trace-format gate: the encoder's bytes for a fixed zoo trace must
# match the committed digest, and gen -> dump -> asm must reproduce them
# exactly, so neither the writer nor the text codec can drift unnoticed.
go build -o "$tmp/secpb-trace" ./cmd/secpb-trace
"$tmp/secpb-trace" gen -bench kvheavy -ops 40000 -seed 13 -o "$tmp/kv.spb2"
want_sum=$(cut -d' ' -f1 results/kvheavy-ops40000-seed13.spb2.sha256)
got_sum=$(sha256sum < "$tmp/kv.spb2" | cut -d' ' -f1)
if [ "$got_sum" != "$want_sum" ]; then
    echo "ERROR: kvheavy SPB2 trace digest $got_sum differs from results/kvheavy-ops40000-seed13.spb2.sha256" >&2
    exit 1
fi
"$tmp/secpb-trace" dump -i "$tmp/kv.spb2" > "$tmp/kv.txt"
"$tmp/secpb-trace" asm -i "$tmp/kv.txt" -o "$tmp/kv_asm.spb2"
if ! cmp -s "$tmp/kv.spb2" "$tmp/kv_asm.spb2"; then
    echo "ERROR: gen -> dump -> asm does not reproduce the SPB2 bytes" >&2
    exit 1
fi
echo "SPB2 trace matches its committed digest and round-trips gen -> dump -> asm byte for byte"

# Zoo replay-identity gate: the zoo artifact must be byte-identical
# between live generation and SPB2 replay of recorded traces, across
# the parallelism knob.
"$tmp/secpb-bench" -exp zoo -ops 3000 -parallel 1 -memo=false \
    > "$tmp/zoo_live.txt" 2>&1
"$tmp/secpb-bench" -exp zoo -ops 3000 -record -tracedir "$tmp/traces" \
    > "$tmp/zoo_recorded.txt" 2>&1
"$tmp/secpb-bench" -exp zoo -ops 3000 -tracedir "$tmp/traces" -parallel 4 \
    > "$tmp/zoo_replay.txt" 2>&1
for f in "$tmp/zoo_recorded.txt" "$tmp/zoo_replay.txt"; do
    # Strip the record-phase progress line before comparing.
    grep -v '^recorded ' "$f" > "$f.clean"
    if ! diff -q "$tmp/zoo_live.txt" "$f.clean"; then
        echo "ERROR: zoo artifact differs between live generation and SPB2 replay ($f)" >&2
        exit 1
    fi
done
echo "zoo artifact identical: live generators vs recorded SPB2 replay"

# Streaming-service smoke gate: stream a zoo trace into a live
# secpb-serve, kill -9 the process mid-stream, restart it on the same
# data directory, resume the session from its durable cursor (uploads
# are idempotent, so replaying from segment 0 is also correct), and
# require the finalized result to be byte-identical to a batch
# `secpb-trace run` of the same trace.
go build -o "$tmp/secpb-serve" ./cmd/secpb-serve
"$tmp/secpb-trace" gen -bench kvstore -ops 4000 -seed 21 -segops 256 -o "$tmp/stream.spb2"
"$tmp/secpb-trace" split -i "$tmp/stream.spb2" -d "$tmp/segs"
"$tmp/secpb-trace" run -i "$tmp/stream.spb2" -scheme cobcm -bench kvstore -seed 21 \
    -o "$tmp/golden.json"

wait_for_addr() {
    local file=$1 i
    for i in $(seq 1 100); do
        [ -s "$file" ] && return 0
        sleep 0.1
    done
    echo "ERROR: secpb-serve did not write $file" >&2
    return 1
}

"$tmp/secpb-serve" -addr 127.0.0.1:0 -data "$tmp/served" -addrfile "$tmp/addr1" \
    2> "$tmp/serve1.log" &
serve_pid=$!
wait_for_addr "$tmp/addr1"
addr=$(tr -d '\n' < "$tmp/addr1")
curl -fsS -X POST "http://$addr/v1/sessions" \
    -d '{"name":"smoke","scheme":"cobcm","bench":"kvstore","seed":21}' > /dev/null
segs=("$tmp/segs"/seg-*.spb2)
half=$(( ${#segs[@]} / 2 ))
for i in $(seq 0 $((half - 1))); do
    curl -fsS -X PUT --data-binary @"${segs[$i]}" \
        "http://$addr/v1/sessions/smoke/segments/$i" > /dev/null
done
kill -9 "$serve_pid"
wait "$serve_pid" 2>/dev/null || true

"$tmp/secpb-serve" -addr 127.0.0.1:0 -data "$tmp/served" -addrfile "$tmp/addr2" \
    2> "$tmp/serve2.log" &
serve_pid=$!
wait_for_addr "$tmp/addr2"
addr=$(tr -d '\n' < "$tmp/addr2")
durable=$(curl -fsS "http://$addr/v1/sessions/smoke" \
    | sed -n 's/.*"durable_segs":\([0-9]*\).*/\1/p')
echo "secpb-serve killed after $half uploads, resumed with $durable durable segments"
for i in $(seq "$durable" $(( ${#segs[@]} - 1 ))); do
    curl -fsS -X PUT --data-binary @"${segs[$i]}" \
        "http://$addr/v1/sessions/smoke/segments/$i" > /dev/null
done
curl -fsS -X POST "http://$addr/v1/sessions/smoke/finalize" > /dev/null
curl -fsS "http://$addr/v1/sessions/smoke/result" > "$tmp/streamed.json"
curl -fsS "http://$addr/metrics" | grep -q '^secpb_segments_accepted_total' || {
    echo "ERROR: /metrics is missing the ingest counters" >&2
    exit 1
}
kill "$serve_pid"
wait "$serve_pid" 2>/dev/null || true
serve_pid=""
if ! diff -q "$tmp/golden.json" "$tmp/streamed.json"; then
    echo "ERROR: streamed session result differs from batch replay after kill -9" >&2
    exit 1
fi
echo "streamed session byte-identical to batch replay across a kill -9 restart"

# Service kill matrix: 50 sampled in-process kill points per scheme
# across two schemes (>=100 total), each resumed and differentially
# verified against the golden committed prefix, plus a
# tampered-checkpoint negative control per cell.
"$tmp/secpb-crash" -service -schemes sp,cobcm -bench gcc -ops 3200 -segops 64 \
    -points 50 -seed 42 -out "$tmp/service-matrix.json"
