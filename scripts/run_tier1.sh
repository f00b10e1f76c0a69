#!/usr/bin/env bash
# Tier-1 verification: the SimParams knob check, full build + test suite,
# the perf gate, the paper figures against their golden stdout and the
# paper's claims, the examples, the trace gate, the repo benchmark's smoke
# run, then the chaos soak, the
# atomics/RPC-bind races, the live-migration suite and the simulated RNIC
# with its Verbs and baseline users under ThreadSanitizer (the
# failure-recovery and migration-gate paths are the most thread-hostile code
# in the tree, so they get the extra scrutiny), and the memory, async, RPC,
# RNIC and baseline suites under ASan+UBSan. Each stage's wall time and the
# total are printed as they finish.
#
# Usage: scripts/run_tier1.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

now_ms() { echo $(( $(date +%s%N) / 1000000 )); }
fmt_s() { printf '%d.%d s' $(( $1 / 1000 )) $(( $1 % 1000 / 100 )); }
TIER1_T0=$(now_ms)
STAGE=""
STAGE_T0=${TIER1_T0}
# Ends the running stage (printing its wall time) and starts stage "$1".
stage() {
  local t
  t=$(now_ms)
  if [[ -n "${STAGE}" ]]; then
    echo "   ${STAGE}: $(fmt_s $(( t - STAGE_T0 )))"
  fi
  STAGE="$1"
  STAGE_T0=${t}
  echo "== tier-1: ${STAGE} =="
}

stage "SimParams knobs (check_params)"
# Every SimParams field must be assigned by some bench, benchmark workload,
# example or src/ file; a field only tests set belongs beside its user as a
# named constant.
python3 scripts/check_params.py

stage "build + ctest"
cmake -B build -S . >/dev/null
cmake --build build -j"${JOBS}"
(cd build && ctest --output-on-failure -j"${JOBS}")

stage "perf-regression gate (check_bench)"
# Re-run the anchored benches into a scratch dir and diff their telemetry
# sidecars against the committed BENCH_*.json anchors (tolerances and host
# bands in scripts/check_bench.py). Each bench's stdout is kept in
# build/bench-out/<bench>.txt; a bench that exits non-zero (bench_migrate's
# FAIL verdict, say) prints its last 20 lines and ends tier-1.
mkdir -p build/bench-out
run_bench() {
  local bench="$1"
  shift
  if ! (cd build/bench-out && "../bench/${bench}" "$@" >"${bench}.txt"); then
    echo "${bench} exited non-zero; last 20 lines of build/bench-out/${bench}.txt:"
    tail -n 20 "build/bench-out/${bench}.txt"
    exit 1
  fi
}
# bench_micro runs its three sweeps and writes their sidecars.
run_bench bench_micro
run_bench bench_migrate
# Its stdout is also a golden figure (next stage).
run_bench bench_latency_breakdown
# Transport scale smoke: the 8/100-node prefix of the fig14 RC-vs-DC sweep
# (the committed anchor covers the full 8..1000 sweep; check_bench pairs the
# smoke prefix and skips the rest — see SUBSET_OK).
run_bench fig14_scalability --scale-smoke --telemetry BENCH_transport_scale.json
python3 scripts/check_bench.py

stage "paper figures vs golden stdout and the paper's claims"
# The repeatable figure binaries must print exactly the committed stdout in
# bench/golden/; bench_latency_breakdown's came from the stage above. A
# mismatch prints the first differing lines of each figure that moved.
GOLDEN_FIGS="fig04_mr_count fig05_mr_size fig06_latency fig12_rpc_mem app_dsm"
for fig in ${GOLDEN_FIGS}; do
  (cd build/bench-out && "../bench/${fig}" >"${fig}.txt")
done
golden_failed=0
for fig in ${GOLDEN_FIGS} bench_latency_breakdown; do
  out="build/bench-out/${fig}"
  if ! diff -u "bench/golden/${fig}.txt" "${out}.txt" >"${out}.diff"; then
    echo "${fig}: stdout differs from bench/golden/${fig}.txt; first differing lines:"
    head -n 20 "${out}.diff"
    golden_failed=1
  fi
done
if [[ ${golden_failed} -ne 0 ]]; then
  exit 1
fi
# The paper's qualitative claims for Figs 4, 5, 6 and 12, read from the same
# tables (EXPERIMENTS.md's "Paper" bullets; see scripts/check_claims.py).
python3 scripts/check_claims.py build/bench-out

stage "examples"
# Each example must run to completion (with the tests and fault_recovery,
# they are what runs on the default node memory pool).
for example in quickstart kv_service wordcount atomic_log dsm_counter graph_analytics; do
  "./build/examples/${example}" >/dev/null || { echo "example ${example} failed"; exit 1; }
done

stage "chrome-trace export sanity"
TRACE_OUT="$(mktemp /tmp/lite_trace.XXXXXX.json)"
trap 'rm -f "${TRACE_OUT}"' EXIT
./build/bench/fig10_rpc_latency --trace-out "${TRACE_OUT}" >/dev/null
python3 scripts/check_trace.py --require-flow "${TRACE_OUT}"

stage "repo benchmark smoke"
# Every benchmark/ workload at 1/50 of its op count, with all of its
# correctness checks (shadow-copied reads, RPC reply contents, exactly-once
# fetch-add, the health watchdog); exits 1 on any mismatch or failed op.
python3 benchmark/run.py --smoke

stage "chaos soak, migration and the RNIC under ThreadSanitizer"
cmake -B build-tsan -S . -DLT_SANITIZE=thread >/dev/null
cmake --build build-tsan -j"${JOBS}" --target faults_chaos_test faults_test lite_async_test lite_ring_test transport_test lite_sync_test lite_rpc_test lite_memory_test rnic_test baselines_test verbs_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/faults_test
# The WQE pipeline: SEND/RNR waits, shared CQs, and the baselines' server
# threads polling the same RNIC the clients post to.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/rnic_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/baselines_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/verbs_test
# Local vs remote atomics on one word, and two threads racing a first RPC bind.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_sync_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_rpc_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_async_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_ring_test
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/transport_test
# The migration gate and home resolver: live migration, stale-handle
# redirects of every op kind, drain, and the LMR move.
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/lite_memory_test \
    --gtest_filter='MigrationTest.*:Ops/MigrationStaleTest.*:LiteMemoryTest.MoveLmrPreservesContentAndRemapsHandles'
TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/faults_chaos_test

stage "memory, async, RPC, RNIC and baseline suites under ASan+UBSan"
cmake -B build-asan -S . -DLT_SANITIZE=address >/dev/null
cmake --build build-asan -j"${JOBS}" --target lite_memory_test lite_async_test lite_rpc_test rnic_test baselines_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/lite_memory_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/lite_async_test
# Reply-slot and server-ring lifetimes (zombie reclaim, failed ring setup).
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/lite_rpc_test
# The SEND/RNR path and CopyResolved's scatter/gather pointer arithmetic.
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/rnic_test
ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" ./build-asan/tests/baselines_test

stage "PASS"
echo "   total: $(fmt_s $(( STAGE_T0 - TIER1_T0 )))"
