#!/usr/bin/env sh
# The full local CI gate: configure + build the ci-asan preset
# (ASan/UBSan, warnings-as-errors), run the test suite under it, then the
# concurrency-sensitive subset under ThreadSanitizer (ci-tsan preset), the
# full suite again under standalone UBSan (ci-ubsan preset, catching UB
# that the combined ASan build can mask), the whole-command benchmark's
# known-answer checks, clang-tidy over the first-party sources, and a
# threshold-gated benchmark comparison against the checked in
# bench/BENCH_*.json baselines. Mirrors what a hosted pipeline would
# run; any stage failing fails the script.
#
#   tools/run_ci.sh
#
# BENCH_THRESHOLD_PCT (default 50) is the allowed ns_per_op regression per
# benchmark before the perf stage fails; baselines were recorded on a
# different machine, so the gate is deliberately loose — it catches
# order-of-magnitude mistakes, not percent-level drift.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$repo_root"

echo "== configure (ci-asan) =="
cmake --preset ci-asan

echo "== build (ci-asan) =="
cmake --build --preset ci-asan

echo "== test (ci-asan) =="
ctest --preset ci-asan

# Drive the daemon end to end under ASan: scripted stdio and TCP
# sessions (load, membership at two thread counts, live stats; on stdio
# also a views-of-views load and its export, a failed load and its
# retry, and a load that reads an ambiguously defined view relation),
# then a protocol shutdown — the script asserts replies and a clean exit.
echo "== daemon smoke (viewcapd scripted session) =="
python3 "$repo_root/tools/daemon_smoke.py" \
    "$repo_root/build-asan/tools/viewcapd" \
    "$repo_root/examples/programs/example315.vcp"

echo "== configure (ci-tsan) =="
cmake --preset ci-tsan

echo "== build (ci-tsan) =="
cmake --build --preset ci-tsan

# The ci-tsan test preset filters to the suites that run independent
# membership questions at once over one engine (thread pool, engine
# sharing, capacity/equivalence/redundancy calls) plus the
# kernel-vs-legacy homomorphism differential suite (hom_kernel_test),
# which drives the engine at several thread counts, the ParallelFor index
# build and lint at threads 8 (three named tests). It excludes the index
# round-trip tests, which its Engine and Equivalence patterns match but
# which run nothing concurrently. The asan/ubsan presets run the full
# suite, so the differential tests run under all three sanitizers.
echo "== test (ci-tsan, parallel subset) =="
ctest --preset ci-tsan

echo "== configure (ci-ubsan) =="
cmake --preset ci-ubsan

echo "== build (ci-ubsan) =="
cmake --build --preset ci-ubsan

echo "== test (ci-ubsan) =="
ctest --preset ci-ubsan

# Persistent capacity index round trip under ASan: build an index over
# every example catalog, reopen it in a fresh process per command, and
# require every verdict to be bit-identical to the live engine (plus the
# stale-index rejection contract). Catches serialization drift that the
# unit tests' in-process round trips could mask.
echo "== index round trip (build / fresh-process query diff) =="
python3 "$repo_root/tools/index_roundtrip.py" \
    "$repo_root/build-asan/tools/viewcap_cli" \
    "$repo_root/examples/programs"

# The benchmark harness's own tests: fixed-round runs of all four
# perfbench workloads check every answer against answers derived from the
# workload families, not from the engine, plus seed determinism and the
# output contract. The script builds the harness under .bench_build/.
echo "== perfbench known-answer checks =="
python3 "$repo_root/perfbench/test_perfbench.py"

echo "== clang-tidy =="
"$repo_root/tools/run_tidy.sh" "$repo_root/build-asan"

# Every checked-in baseline is gated, including BENCH_homomorphism.json
# (the SoA kernel vs legacy pointer-walking series — the guard against
# regressing the hot homomorphism path).
echo "== bench (threshold-gated against bench/BENCH_*.json) =="
cmake --preset default
bench_out=$(mktemp -d)
trap 'rm -rf "$bench_out"' EXIT
for baseline in "$repo_root"/bench/BENCH_*.json; do
  name=$(basename "$baseline" .json | sed 's/^BENCH_/bench_/')
  cmake --build --preset default --target "$name"
  "$repo_root/build/bench/$name" --json="$bench_out/$name.json"
  python3 "$repo_root/tools/bench_compare.py" "$baseline" \
      "$bench_out/$name.json" --threshold="${BENCH_THRESHOLD_PCT:-50}"
done

echo "run_ci.sh: all stages passed."
