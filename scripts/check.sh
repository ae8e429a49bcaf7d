#!/usr/bin/env bash
# Full hygiene pass: configure with ASan+UBSan, build everything, and run
# the test suite under the sanitizers. Usage:
#   scripts/check.sh [build-dir]
# A separate build directory (default build-asan) keeps the instrumented
# artifacts away from the regular build.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSGP_SANITIZE=address,undefined
cmake --build "$BUILD_DIR" -j "$(nproc)"

# halt_on_error makes UBSan findings fail the test run instead of just
# printing; detect_leaks exercises the LeakSanitizer pass bundled with ASan.
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"
export ASAN_OPTIONS="detect_leaks=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"
echo "check.sh: all tests passed under address,undefined sanitizers"

# The telemetry layer is the one subsystem with lock-free concurrent
# mutation; give its test an extra dedicated sanitizer pass so a racing
# counter/histogram bug cannot hide behind a sharded ctest run.
"$BUILD_DIR/tests/telemetry_test"
# The monitor layer samples that same lock-free registry from the
# simulator loop while workers mutate it; its suite gets the same
# dedicated pass.
"$BUILD_DIR/tests/monitor_test"
echo "check.sh: telemetry_test + monitor_test passed standalone under sanitizers"

# The ingest-equivalence suite is the contract of the chunked source
# layer (chunk boundaries and the disk reader never change results); run
# it standalone under the sanitizers so a buffer-lifetime bug in a chunk
# refill cannot hide behind a sharded ctest run either.
"$BUILD_DIR/tests/source_equivalence_test"
# The reader fuzz suite drives the block line splitter across refills and
# buffer growth (block sizes down to 1 byte, lines past 1 MiB), where an
# off-by-one reads outside the block; it gets the same standalone pass.
"$BUILD_DIR/tests/reader_fuzz_test"
echo "check.sh: source_equivalence_test + reader_fuzz_test passed standalone under sanitizers"

# The incidence suite drives the one vertex→partition table behind
# masters, replica sets, RF, DistributedGraph and failover repair, whose
# build packs partitions into 4-byte half-edge records and indexes a
# k-sized slot scratch (k up to 200 there); run it standalone under the
# sanitizers so a wrapped record or an out-of-range slot cannot hide
# behind a sharded ctest run.
"$BUILD_DIR/tests/incidence_test"
echo "check.sh: incidence_test passed standalone under sanitizers"

# The load-tracker suite drives PartitionState's incremental max/min
# effective load (its O(k) rescan indexes the effective-load table),
# ReplicaState's bit-index early-out and BitMatrix's geometric row growth
# (spare rows past rows()); run it standalone under the sanitizers so an
# out-of-range row or a stale tracker cannot hide behind a sharded ctest
# run.
"$BUILD_DIR/tests/load_tracker_test"
echo "check.sh: load_tracker_test passed standalone under sanitizers"

# The live-resharding suite moves ownership state while queries are in
# flight; run it and the drain-guard regressions standalone under the
# sanitizers so a dangling plan pointer or a use-after-move in the batch
# protocol cannot hide behind a sharded ctest run.
"$BUILD_DIR/tests/reshard_test"
"$BUILD_DIR/tests/fault_tolerance_test" --gtest_filter='RecoveryTest.*'
echo "check.sh: resharding + drain-guard tests passed standalone under sanitizers"

# The scoring core is the one place every partitioner's decision loop now
# runs through, and its fast path does word-level bit manipulation over
# externally grown membership rows; run its suite standalone under the
# sanitizers so an out-of-bounds word read in a partial tail block cannot
# hide behind a sharded ctest run. A second run forces the kFast dispatch
# onto the batched tier, so both kernel tiers get a sanitized pass
# regardless of host ISA.
"$BUILD_DIR/tests/score_core_test"
SGP_FORCE_SCALAR_DISPATCH=1 "$BUILD_DIR/tests/score_core_test"
echo "check.sh: score_core_test passed standalone under sanitizers (both kernel tiers)"

# The two-phase family re-streams rewound sources and the registry hands
# out pointers into a growable table; run both new suites standalone
# under the sanitizers so a dangling PartitionerInfo pointer or a
# buffer-lifetime bug across a Rewind() cannot hide behind a sharded
# ctest run.
"$BUILD_DIR/tests/registry_test"
"$BUILD_DIR/tests/twophase_test"
echo "check.sh: registry_test + twophase_test passed standalone under sanitizers"

# Machine-readable bench output: the benches with a committed
# tests/golden/BENCH_*.json are rerun and diffed by ctest's bench_golden_*
# cases above; run the ones without a golden at a small scale and verify
# their BENCH_*.json parses. They run sanitized too — an integration pass
# over the instrumented paths.
JSON_DIR="$(mktemp -d)"
trap 'rm -rf "$JSON_DIR"' EXIT
for bench in bench_fig1_comm_volume bench_fig6_online_throughput; do
  SGP_SCALE=8 SGP_BENCH_JSON_DIR="$JSON_DIR" \
    "$BUILD_DIR/bench/$bench" > /dev/null
done
for json in "$JSON_DIR"/BENCH_*.json; do
  python3 -m json.tool "$json" > /dev/null
  echo "check.sh: $(basename "$json") is valid JSON"
done
echo "check.sh: bench JSON snapshots validated"

# ThreadSanitizer pass over the concurrent subsystems: the worker pool,
# the sharded ingest path, and the parallel grid runner (its determinism
# tests drive 4 worker threads through the memoized caches and the
# per-cell registry merge). TSan is incompatible with ASan, so it gets
# its own build tree; only the three concurrency suites need rebuilding.
TSAN_DIR="${BUILD_DIR}-tsan"
cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DSGP_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$(nproc)" \
  --target thread_pool_test parallel_streaming_test grid_test reshard_test \
  monitor_test score_core_test twophase_test

export TSAN_OPTIONS="halt_on_error=1"
"$TSAN_DIR/tests/thread_pool_test"
"$TSAN_DIR/tests/parallel_streaming_test"
"$TSAN_DIR/tests/grid_test" --gtest_filter='GridRunnerTest.*'
# The reshard controller's telemetry goes through the same thread-local
# registry cache the concurrent subsystems use; running the suite under
# TSan keeps the reshard.* counters honest if resharding ever moves onto
# the worker pool.
"$TSAN_DIR/tests/reshard_test"
# Concurrent time-series sampling against live lock-free counter and
# histogram updates is a real race surface; the monitor suite drives
# writer threads through the registry while a sampler reads it.
"$TSAN_DIR/tests/monitor_test"
# The sharded-scoring equivalence tests drive multi-worker ingest through
# the batched bit-index path (global rows read while delta rows mutate
# between barriers); TSan keeps that interval discipline honest. The
# forced re-run pins every kFast pick outside the suite's explicit
# per-tier loops to the batched tier.
"$TSAN_DIR/tests/score_core_test"
SGP_FORCE_SCALAR_DISPATCH=1 "$TSAN_DIR/tests/score_core_test"
# The two-phase partitioners run inside the parallel grid runner (each
# cell a worker thread sharing the memoized dataset cache); their suite
# under TSan keeps the per-run state honestly run-local.
"$TSAN_DIR/tests/twophase_test"
echo "check.sh: concurrency tests passed under thread sanitizer"

# Portable-vs-native smoke: build partition_checksum twice — the default
# portable flags and -DSGP_NATIVE=ON (-march=native, FP contraction off) —
# and require byte-identical fingerprints for every (algorithm, dataset,
# k, seed, order, capacity profile) cell, in both score modes. This is
# the guard that the reference/fast equivalence is expression-shape
# stable, not an artifact of one compiler flag set.
PORTABLE_DIR="${BUILD_DIR}-portable"
NATIVE_DIR="${BUILD_DIR}-native"
cmake -B "$PORTABLE_DIR" -S . > /dev/null
cmake -B "$NATIVE_DIR" -S . -DSGP_NATIVE=ON > /dev/null
cmake --build "$PORTABLE_DIR" -j "$(nproc)" --target partition_checksum
cmake --build "$NATIVE_DIR" -j "$(nproc)" --target partition_checksum
for mode in reference fast; do
  "$PORTABLE_DIR/examples/partition_checksum" --scale 9 --score-mode "$mode" \
    > "$JSON_DIR/ck_portable_$mode.txt"
  diff "$JSON_DIR/ck_portable_$mode.txt" \
       <("$NATIVE_DIR/examples/partition_checksum" --scale 9 --score-mode "$mode")
done
# Cross-mode: the fast grid must reproduce the reference grid.
diff "$JSON_DIR/ck_portable_reference.txt" "$JSON_DIR/ck_portable_fast.txt"
echo "check.sh: portable and -march=native builds partition identically in both score modes"

# Kernel-tier guard: forcing the kFast dispatch onto the batched tier via
# the env override must reproduce the hardware tier's grid byte-for-byte
# (on AVX2 hosts this diffs the AVX2 kernels against the batched ones;
# elsewhere it is a no-op consistency check).
diff <(SGP_FORCE_SCALAR_DISPATCH=1 \
         "$PORTABLE_DIR/examples/partition_checksum" --scale 9 --score-mode fast) \
     "$JSON_DIR/ck_portable_fast.txt"
echo "check.sh: forced-batched and hardware kernel tiers partition identically"
