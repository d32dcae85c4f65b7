#!/usr/bin/env bash
# Static-analysis driver for the Trident-SRP repo. Runs, in order:
#
#   1. trident-analyze     (tools/trident_analyze.py: every rule —
#                           determinism R1 R2 D1 C2, layering L1, lock
#                           discipline C1 and hardware-modeling hygiene
#                           R3-R7 — with SARIF written to
#                           build-analysis/trident_analyze.sarif)
#   2. warning gate        (full build with -Werror under the escalated
#                           -Wshadow -Wconversion -Wextra-semi set)
#   3. gcc -fanalyzer      (interprocedural path analysis over every TU;
#                           a curated suppression set keeps the known
#                           libstdc++ false-positive families out, so any
#                           remaining warning FAILs the gate)
#   4. clang-format check  (changed files only — no mass reformat; skipped
#                           with a notice when clang-format is absent)
#   5. clang-tidy          (the `tidy` preset; skipped with a notice when
#                           clang-tidy is absent — the container image
#                           ships only gcc, hence the -fanalyzer gate)
#
# Exits nonzero if any *available* gate fails; unavailable tools are
# reported as SKIPPED, never silently dropped.
#
# Usage: tools/run_static_analysis.sh [--quick] [--base REF]
#   --quick      analyzer + format check only (no compilation)
#   --base REF   diff base for the changed-file format check
#                (default: merge-base with main, else HEAD~1, else HEAD)
set -uo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$REPO_ROOT"

QUICK=0
BASE_REF=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --quick) QUICK=1 ;;
    --base) BASE_REF="$2"; shift ;;
    *) echo "unknown option: $1" >&2; exit 2 ;;
  esac
  shift
done

FAILURES=0
report() { # status name detail
  printf '%-8s %-16s %s\n' "$1" "$2" "$3"
  [[ "$1" == FAIL ]] && FAILURES=$((FAILURES + 1)) || true
}

echo "== trident static analysis =="

# ---- 1. trident-analyze ---------------------------------------------------
mkdir -p build-analysis
if python3 tools/trident_analyze.py \
     --sarif build-analysis/trident_analyze.sarif; then
  report OK trident-analyze "semantic rules clean (SARIF in build-analysis/)"
else
  report FAIL trident-analyze "see findings above"
fi

# ---- 2. warning gate ------------------------------------------------------
if [[ $QUICK -eq 0 ]]; then
  WARN_BUILD="$REPO_ROOT/build-warngate"
  if cmake -B "$WARN_BUILD" -S "$REPO_ROOT" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DTRIDENT_WERROR=ON > /dev/null \
     && cmake --build "$WARN_BUILD" -j "$(nproc)" > /dev/null; then
    report OK warnings "-Wall -Wextra -Wshadow -Wconversion -Wextra-semi -Werror"
  else
    report FAIL warnings "build with -Werror failed"
  fi
else
  report SKIP warnings "--quick"
fi

# ---- 3. gcc -fanalyzer ----------------------------------------------------
# Per-TU compile to /dev/null (no link) so the whole tree analyzes in
# well under a minute with xargs fan-out; -fsyntax-only would be faster
# still, but the analyzer is a middle-end pass and silently does nothing
# without codegen running. The suppressed checkers are
# the families gcc 12's analyzer is documented to false-positive on for
# C++ (libstdc++ iterator internals, operator-new NULL paths, std::string
# "leaks"); everything else — use-after-free, double-free, fd leaks,
# infinite recursion — stays live and any hit fails the gate.
if [[ $QUICK -eq 0 ]]; then
  FANALYZER_LOG="$(mktemp)"
  if find src tools bench -name '*.cpp' -print0 \
       | xargs -0 -P "$(nproc)" -I{} \
           g++ -std=c++20 -Isrc -O1 -fanalyzer \
               -Wno-analyzer-use-of-uninitialized-value \
               -Wno-analyzer-null-dereference \
               -Wno-analyzer-possible-null-dereference \
               -Wno-analyzer-malloc-leak \
               -c {} -o /dev/null 2>> "$FANALYZER_LOG" \
     && ! grep -q "warning:" "$FANALYZER_LOG"; then
    report OK gcc-fanalyzer "all TUs clean"
  else
    cat "$FANALYZER_LOG"
    report FAIL gcc-fanalyzer "analyzer warnings above"
  fi
  rm -f "$FANALYZER_LOG"
else
  report SKIP gcc-fanalyzer "--quick"
fi

# ---- 4. clang-format (changed files only) ---------------------------------
if command -v clang-format > /dev/null; then
  if [[ -z "$BASE_REF" ]]; then
    BASE_REF="$(git merge-base HEAD main 2> /dev/null \
                || git rev-parse --verify -q HEAD~1 \
                || git rev-parse HEAD)"
  fi
  mapfile -t CHANGED < <(
    { git diff --name-only "$BASE_REF" -- '*.cpp' '*.h'
      git diff --name-only --cached -- '*.cpp' '*.h'
      git ls-files --others --exclude-standard -- '*.cpp' '*.h'
    } | sort -u)
  if [[ ${#CHANGED[@]} -eq 0 ]]; then
    report OK clang-format "no changed C++ files vs $BASE_REF"
  else
    BAD=0
    for F in "${CHANGED[@]}"; do
      [[ -f "$F" ]] || continue
      if ! clang-format --dry-run -Werror "$F" > /dev/null 2>&1; then
        echo "needs formatting: $F"
        BAD=1
      fi
    done
    if [[ $BAD -eq 0 ]]; then
      report OK clang-format "${#CHANGED[@]} changed file(s) clean"
    else
      report FAIL clang-format "run clang-format -i on the files above"
    fi
  fi
else
  report SKIP clang-format "clang-format not on PATH"
fi

# ---- 5. clang-tidy --------------------------------------------------------
if [[ $QUICK -eq 0 ]] && command -v clang-tidy > /dev/null; then
  if cmake --preset tidy > /dev/null \
     && cmake --build --preset tidy -j "$(nproc)" > /dev/null; then
    report OK clang-tidy ".clang-tidy policy clean"
  else
    report FAIL clang-tidy "see diagnostics above"
  fi
elif [[ $QUICK -eq 1 ]]; then
  report SKIP clang-tidy "--quick"
else
  report SKIP clang-tidy "clang-tidy not on PATH"
fi

echo
if [[ $FAILURES -gt 0 ]]; then
  echo "static analysis: $FAILURES gate(s) FAILED"
  exit 1
fi
echo "static analysis: all available gates passed"
