#!/usr/bin/env bash
# Local mirror of the CI matrix (.github/workflows/ci.yml): the same four
# jobs, runnable one at a time or all together.
#
#   scripts/check.sh            # default job: warnings-as-errors + tier1
#   scripts/check.sh asan       # AddressSanitizer + UBSan suite
#   scripts/check.sh ubsan      # UndefinedBehaviorSanitizer alone
#   scripts/check.sh tsan       # ThreadSanitizer suite
#   scripts/check.sh tidy       # repo lint + analyzer + clang-tidy
#   scripts/check.sh chaos      # seeded chaos sweep, all profiles
#   scripts/check.sh coverage   # line coverage (scripts/coverage.sh)
#   scripts/check.sh hashes REV # chaos history hashes: REV vs working tree
#   scripts/check.sh all        # everything, sequentially
#
# Each job configures its own build tree (build-check-<job>/) so sanitizer
# flags never contaminate the regular build/ directory.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${HOTMAN_BUILD_JOBS:-$(nproc)}"

run_suite() {  # run_suite <name> <label> [cmake args...]
  local name="$1" label="$2"
  shift 2
  local dir="build-check-${name}"
  echo "==> [${name}] configure (${*:-default flags})"
  cmake -B "${dir}" -S . -DHOTMAN_WERROR=ON "$@" >/dev/null
  echo "==> [${name}] build"
  cmake --build "${dir}" -j "${JOBS}" >/dev/null
  echo "==> [${name}] ctest -L ${label}"
  ctest --test-dir "${dir}" -L "${label}" --output-on-failure -j "${JOBS}"
}

job_default() { run_suite default tier1; }
job_asan()    { run_suite asan asan -DHOTMAN_SANITIZE=address,undefined; }
# UBSan alone: catches what the asan pairing can mask (ASan's allocator
# hides some invalid-pointer arithmetic) and matches the CI ubsan job.
job_ubsan()   { run_suite ubsan ubsan -DHOTMAN_SANITIZE=undefined; }
job_tsan()    { run_suite tsan tsan -DHOTMAN_SANITIZE=thread; }

# Chaos: the ctest suite (50 seeds per profile plus the negative controls)
# and a determinism-verified runner sweep, mirroring CI's PR smoke. Seeds
# are virtual-time so the whole job is seconds of wall-clock.
job_chaos() {
  run_suite default chaos
  local seeds="${HOTMAN_CHAOS_SEEDS:-1-50}"
  for profile in quorum convergence membership skew; do
    echo "==> [chaos] chaos_runner --seeds=${seeds} --profile=${profile} --verify"
    ./build-check-default/tools/chaos_runner \
      --seeds="${seeds}" --profile="${profile}" --verify --quiet
  done
  echo "==> [chaos] chaos_runner --seeds=${seeds} --profile=quorum --read-path=primary --verify"
  ./build-check-default/tools/chaos_runner \
    --seeds="${seeds}" --profile=quorum --read-path=primary --verify --quiet
}

job_coverage() { scripts/coverage.sh; }

# Behaviour-preservation proof for refactors: builds chaos_runner at
# <base-rev> (exported with git archive into a temporary directory) and in
# the working tree, runs
# the same seeds of every chaos profile on both and diffs the per-seed
# history hashes. Same seed => same history, so identical hashes mean the
# change did not alter any message, timer or outcome the checker sees.
# Exits non-zero when any hash differs and lists the seeds that moved.
job_hashes() {
  local base="${1:-}"
  if [[ -z "${base}" ]]; then
    echo "usage: scripts/check.sh hashes <base-rev>" >&2
    exit 2
  fi
  local seeds="${HOTMAN_CHAOS_SEEDS:-1-50}"
  local work
  work="$(mktemp -d "${TMPDIR:-/tmp}/hotman-hashes.XXXXXX")"
  # shellcheck disable=SC2064  # expand ${work} now, not at exit
  trap "rm -rf '${work}'" EXIT
  mkdir "${work}/base"
  git archive "${base}" | tar -x -C "${work}/base"
  echo "==> [hashes] build chaos_runner at ${base}"
  cmake -B "${work}/base/build" -S "${work}/base" >/dev/null
  cmake --build "${work}/base/build" -j "${JOBS}" --target chaos_runner >/dev/null
  echo "==> [hashes] build chaos_runner in the working tree"
  cmake -B build-check-hashes -S . >/dev/null
  cmake --build build-check-hashes -j "${JOBS}" --target chaos_runner >/dev/null

  local base_bin="${work}/base/build/tools/chaos_runner"
  local head_bin="build-check-hashes/tools/chaos_runner"
  # Revisions before the read-plan enum spelled the primary plan
  # --fast-reads.
  # The help text is captured first: chaos_runner --help exits 2, which
  # under pipefail would fail a direct pipe into grep even on a match.
  local base_primary="--read-path=primary" base_help
  base_help="$("${base_bin}" --help 2>&1 || true)"
  if ! grep -q -- "--read-path" <<<"${base_help}"; then
    base_primary="--fast-reads"
  fi
  local changed=0 profile flags base_flags
  for profile in quorum quorum:primary convergence membership skew; do
    case "${profile}" in
      quorum:primary) flags="--profile=quorum --read-path=primary"
                      base_flags="--profile=quorum ${base_primary}" ;;
      *)              flags="--profile=${profile}"
                      base_flags="${flags}" ;;
    esac
    # shellcheck disable=SC2086  # flags are deliberately word-split
    "${base_bin}" --seeds="${seeds}" ${base_flags} >"${work}/base.txt" || true
    # shellcheck disable=SC2086
    "${head_bin}" --seeds="${seeds}" ${flags} >"${work}/head.txt" || true
    local pattern='s/^\(seed=[0-9]*\) profile=[a-z]* \(hash=[0-9a-f]*\).*/\1 \2/p'
    sed -n "${pattern}" "${work}/base.txt" >"${work}/base.hashes"
    sed -n "${pattern}" "${work}/head.txt" >"${work}/head.hashes"
    local moved
    moved="$(diff "${work}/base.hashes" "${work}/head.hashes" |
             sed -n 's/^> seed=\([0-9]*\) .*/\1/p' | tr '\n' ' ' || true)"
    local count
    count="$(wc -l <"${work}/head.hashes")"
    if [[ -z "${moved}" ]] && [[ "${count}" -gt 0 ]] &&
       cmp -s "${work}/base.hashes" "${work}/head.hashes"; then
      echo "==> [hashes] ${flags}: ${count} seeds identical"
    else
      changed=1
      echo "==> [hashes] ${flags}: CHANGED seeds: ${moved}"
    fi
    echo "    base $(grep '^FAILING_SEEDS:' "${work}/base.txt")"
    echo "    head $(grep '^FAILING_SEEDS:' "${work}/head.txt")"
  done
  return "${changed}"
}

job_tidy() {
  echo "==> [tidy] repo lint"
  python3 tools/lint_hotman.py
  python3 tools/lint_hotman_test.py
  echo "==> [tidy] whole-program analysis (tools/analyze)"
  python3 tools/analyze/hotman_analyze.py --json ANALYZE_findings.json
  python3 tools/analyze/hotman_analyze_test.py
  echo "==> [tidy] clang-tidy (baseline-aware; skips if not installed)"
  scripts/run_clang_tidy.sh build-check-tidy
}

case "${1:-default}" in
  default)  job_default ;;
  asan)     job_asan ;;
  ubsan)    job_ubsan ;;
  tsan)     job_tsan ;;
  tidy)     job_tidy ;;
  chaos)    job_chaos ;;
  coverage) job_coverage ;;
  hashes)   job_hashes "${2:-}" ;;
  all)      job_default; job_asan; job_ubsan; job_tsan; job_tidy; job_chaos ;;
  *) echo "usage: scripts/check.sh [default|asan|ubsan|tsan|tidy|chaos|coverage|all|hashes REV]" >&2
     exit 2 ;;
esac
echo "==> OK"
