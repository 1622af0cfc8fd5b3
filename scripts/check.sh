#!/usr/bin/env bash
# Full local gate: the tier-1 build + test run from ROADMAP.md, a flake
# catcher repeating the platform/fleet/obs/flight/prof suites, the bench
# regression gate (BENCH_*.json vs bench/baselines/: sim-plane cells must
# match exactly, the three wall-plane overhead ratios within 15%, and a
# result file or table on one side only fails; on failure it renders
# bench_prof's profile against the committed one) plus a vdap-report
# render of bench_obs's trace.json/metrics.jsonl and a 20k-vehicle
# scaling smoke that compares the capture exports of a 1x1 and an 8x4
# run byte for byte, then an
# AddressSanitizer+UBSan build running the chaos/soak, telemetry-trace,
# SLO-health, fleet-telemetry, sharded-simulator, sharded-ingest,
# shard-observability, flight-recorder and profiling suites (the
# long-horizon and multi-threaded paths most likely to hide lifetime and
# ordering bugs), plus the DDI store and property suites, which read
# segment files back from disk.
#
# Usage: scripts/check.sh
#          [--tier1-only | --bench-only | --bench-rebaseline | --tsan]
#   --tier1-only        build + full ctest, skip the flake catcher (CI runs
#                       it as its own step), bench gate and sanitizers
#   --bench-only        build + bench regression gate and scaling smoke,
#                       skip ctest, the flake catcher and sanitizers (the
#                       CI bench job)
#   --bench-rebaseline  regenerate bench/baselines/ from this build and
#                       exit (sim-plane tables are deterministic — fixed
#                       seeds — so only the wall-plane overhead rows and
#                       BENCH_prof.profile.jsonl move between refreshes)
#   --tsan              additionally build with ThreadSanitizer and run the
#                       sharded + fleet + ingest suites under it (the
#                       thread-pool epoch runner drives all concurrent code)
#
# JOBS can be overridden from the environment: JOBS=2 scripts/check.sh
set -euo pipefail

cd "$(dirname "$0")/.."
ROOT="$(pwd)"

if [[ -z "${JOBS:-}" ]]; then
  JOBS="$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || true)"
  if ! [[ "$JOBS" =~ ^[1-9][0-9]*$ ]]; then
    echo "error: cannot determine CPU count (nproc/sysctl failed: '$JOBS')." >&2
    echo "       set JOBS explicitly, e.g.: JOBS=4 scripts/check.sh" >&2
    exit 1
  fi
fi

echo "== tier-1: build + full ctest (JOBS=$JOBS) =="
cmake -B build -S .
cmake --build build -j "$JOBS"

# Emits every bench's BENCH_*.json into $1. One run per
# bench/bench_*.cpp source: a leftover binary of a removed bench never
# runs, and a source without a built binary (a stale build dir, or a
# target dropped from bench/CMakeLists.txt) fails rather than silently
# shrinking the result set.
run_benches() {
  local out_dir="$1"
  local src name
  mkdir -p "$out_dir"
  for src in "$ROOT"/bench/bench_*.cpp; do
    name="$(basename "$src" .cpp)"
    if [[ ! -x "$ROOT/build/bench/$name" ]]; then
      echo "error: bench/$name.cpp has no built binary at build/bench/$name" >&2
      echo "       (stale build? re-run cmake, or remove the source)" >&2
      exit 1
    fi
    (cd "$out_dir" && "$ROOT/build/bench/$name" >/dev/null)
  done
}

if [[ "${1:-}" == "--bench-rebaseline" ]]; then
  echo "== regenerating bench/baselines/ =="
  rm -f "$ROOT"/bench/baselines/BENCH_*.json \
        "$ROOT"/bench/baselines/BENCH_*.profile.jsonl
  run_benches "$ROOT/bench/baselines"
  ls "$ROOT"/bench/baselines/
  echo "OK (rebaselined — review and commit bench/baselines/)"
  exit 0
fi

if [[ "${1:-}" != "--bench-only" ]]; then
  ctest --test-dir build --output-on-failure -j "$JOBS"
fi

if [[ "${1:-}" == "--tier1-only" ]]; then
  echo "OK (tier-1 only)"
  exit 0
fi

if [[ "${1:-}" != "--bench-only" ]]; then
  # Flake catcher (its own step in CI's tier1 job): temp-path and
  # ordering flakes show up under repetition.
  echo "== flake catcher: platform + fleet + ingest + obs + flight + prof, until-fail:3 =="
  ctest --test-dir build --output-on-failure -j "$JOBS" \
        --repeat until-fail:3 -L 'platform|fleet|ingest|obs|flight|prof'
fi

echo "== bench regression gate =="
rm -rf build/bench-results
# bench_obs dumps its capture-on trace/metrics/shards artifacts here so
# they ride along with the gate results (CI uploads the directory).
export VDAP_OBS_ARTIFACTS="$ROOT/build/bench-results/obs-artifacts"
mkdir -p "$VDAP_OBS_ARTIFACTS"
run_benches "$ROOT/build/bench-results"

# Geometry invariance at fleet size: one 20k-vehicle run at 1x1 and at
# 8x4, both captured, must print the same summary line and export the
# same trace.json and metrics.jsonl. (rings.vfr is left out while the
# flight recorder's scratch rings overflow at this size: ROADMAP item 8.)
# The 8x4 capture stays under smoke-capture/ for CI to render and upload;
# the 1x1 exports are deleted once they compare equal. It runs before
# the table comparison, so a red gate does not skip it.
echo "== scaling smoke: 20k vehicles, 1x1 vs 8x4, capture exports compared =="
SMOKE="$ROOT/build/bench-results"
mkdir -p "$SMOKE/smoke-1x1" "$SMOKE/smoke-capture"
build/examples/scenario_runner --scale 20000 7 --shards 1 --threads 1 \
    --capture "$SMOKE/smoke-1x1" > "$SMOKE/smoke-1x1/stdout.txt"
build/examples/scenario_runner --scale 20000 7 --shards 8 --threads 4 \
    --capture "$SMOKE/smoke-capture" > "$SMOKE/smoke-capture/stdout.txt"
diff <(head -1 "$SMOKE/smoke-1x1/stdout.txt") \
     <(head -1 "$SMOKE/smoke-capture/stdout.txt")
for f in trace.json metrics.jsonl; do
  cmp "$SMOKE/smoke-1x1/$f" "$SMOKE/smoke-capture/$f"
  rm "$SMOKE/smoke-1x1/$f"
done

if ! python3 scripts/bench_compare.py bench/baselines build/bench-results; then
  # Name the frames that absorbed a wall-clock regression: the last
  # sampler-on profile of bench_prof against the committed one.
  build/tools/vdap-report --profile build/bench-results/BENCH_prof.profile.jsonl \
      --diff bench/baselines/BENCH_prof.profile.jsonl
  exit 1
fi
# Parse what the exporters wrote: a malformed trace.json or metrics.jsonl
# fails the gate here instead of a reader later. The rendered tables stay
# next to the artifacts.
build/tools/vdap-report "$VDAP_OBS_ARTIFACTS/trace.json" \
    "$VDAP_OBS_ARTIFACTS/metrics.jsonl" > "$VDAP_OBS_ARTIFACTS/report.txt"

if [[ "${1:-}" == "--bench-only" ]]; then
  echo "OK (bench only)"
  exit 0
fi

echo "== asan: chaos + trace + slo + fleet + shard + ingest + obs + flight + prof + ddi + property suites under ASan/UBSan =="
cmake -B build-asan -S . -DASAN=ON -DCMAKE_BUILD_TYPE=Debug
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan --output-on-failure -j "$JOBS" \
      -L 'chaos|trace|slo|fleet|shard|ingest|obs|flight|prof|ddi|property'

if [[ "${1:-}" == "--tsan" ]]; then
  echo "== tsan: shard + fleet + ingest + obs + flight + prof suites under ThreadSanitizer =="
  cmake -B build-tsan -S . -DTSAN=ON -DCMAKE_BUILD_TYPE=Debug
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
        -L 'shard|fleet|ingest|obs|flight|prof'
fi

echo "OK"
