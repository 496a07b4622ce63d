#!/usr/bin/env bash
# Tier-1 verification: plain build + full test suite, then (optionally) the
# same suite under a sanitizer.
#
#   scripts/check.sh                # RelWithDebInfo build + ctest
#   scripts/check.sh thread         # additionally build + ctest with TSan
#   scripts/check.sh address        # additionally build + ctest with ASan
#   scripts/check.sh --sim 500      # simulation suite only (label `sim`),
#                                   # with the given randomized schedule count
#   scripts/check.sh --obs          # observability suite only (label `obs`):
#                                   # end-to-end tracing + flight recorder
#   scripts/check.sh --health       # health-plane suite only (label `health`):
#                                   # time-series metrics, watchdogs, admin
#                                   # endpoint, deterministic stall detection
#   scripts/check.sh --readpath     # read-path suite only (label `readpath`):
#                                   # entry cache, prefetcher, tail memoization,
#                                   # cache-on/off sim verdict identity
#   scripts/check.sh --verify [N]   # verification suite only (label `verify`):
#                                   # linearizability checker units, the N-seed
#                                   # fault-sweep audit (default 24), mutation
#                                   # self-tests, delosctl smoke test
#   scripts/check.sh --workload     # workload-attribution suite only (label
#                                   # `workload`): sketch units, attributor
#                                   # taps, replay byte-identity sim sweep
#   scripts/check.sh --digest       # divergence-detection suite only (label
#                                   # `digest`): digest/divergence units plus
#                                   # the sabotage-conviction + fault-free
#                                   # false-positive sim sweeps
#
# The simulation tests read DELOS_SIM_SCHEDULES for their randomized schedule
# count (default 200). Sanitizer suites run with a reduced count — each
# schedule is several times slower under TSan — unless the caller already set
# one in the environment.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
SANITIZER_SIM_SCHEDULES="${DELOS_SIM_SCHEDULES:-25}"

run_suite() {
  local dir="$1"
  shift
  cmake -B "$dir" -S . "$@" >/dev/null
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

# Label suites, one row each: flag -> "ctest label | count env var | default
# count | count noun | banner | name". A suite with a count env var takes an
# optional positive count argument (printed where the banner says %s).
declare -A SUITES=(
  [--sim]="sim|DELOS_SIM_SCHEDULES|200|schedule|simulation suite (%s randomized schedules)|simulation suite"
  [--obs]="obs||||observability suite (tracing + flight recorder)|observability suite"
  [--health]="health||||health-plane suite (time-series metrics + watchdogs + admin endpoint)|health-plane suite"
  [--readpath]="readpath||||read-path suite (entry cache + prefetcher + tail memoization)|read-path suite"
  [--verify]="verify|DELOS_VERIFY_SCHEDULES|24|seed|verification suite (linearizability audit, %s-seed fault sweep)|verification suite"
  [--workload]="workload||||workload-attribution suite (streaming sketches + replay identity)|workload-attribution suite"
  [--digest]="digest||||divergence-detection suite (digest beacons + sabotage conviction sweep)|divergence-detection suite"
)

FLAG="${1:-}"
if [[ -n "$FLAG" && -n "${SUITES[$FLAG]+x}" ]]; then
  IFS='|' read -r label count_var default_count noun banner name <<<"${SUITES[$FLAG]}"
  suite_env=()
  if [[ -n "$count_var" ]]; then
    count="${2:-$default_count}"
    if ! [[ "$count" =~ ^[0-9]+$ && "$count" -gt 0 ]]; then
      echo "check.sh: $FLAG expects a positive $noun count, got '${2:-}'" >&2
      exit 2
    fi
    suite_env=("$count_var=$count")
    banner="${banner/\%s/$count}"
  fi
  echo "== $banner =="
  cmake -B build -S . >/dev/null
  cmake --build build -j "$JOBS"
  env ${suite_env[@]+"${suite_env[@]}"} \
    ctest --test-dir build -L "$label" --output-on-failure -j "$JOBS"
  echo "check.sh: $name passed"
  exit 0
fi

SAN="${1:-}"
if [[ -n "$SAN" && "$SAN" != "thread" && "$SAN" != "address" ]]; then
  echo "check.sh: unknown sanitizer '$SAN' (expected 'thread', 'address', '--sim N', '--obs', '--health', '--readpath', '--verify N', '--workload', or '--digest')" >&2
  exit 2
fi

echo "== plain build + ctest =="
run_suite build

if [[ -n "$SAN" ]]; then
  echo "== ${SAN} sanitizer build + ctest =="
  DELOS_SIM_SCHEDULES="$SANITIZER_SIM_SCHEDULES" \
    run_suite "build-${SAN}" "-DDELOS_SANITIZE=${SAN}"
fi

echo "check.sh: all suites passed"
