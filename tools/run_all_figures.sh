#!/usr/bin/env bash
# Builds the repo and runs every figure/ablation binary under
# TRIDENT_BENCH_QUICK=1 (quarter instruction budget) — a CI-sized smoke of
# the full experimental methodology. Fails if any binary fails.
#
# Usage: tools/run_all_figures.sh [build-dir] [--hwpf LIST]
#   --hwpf LIST          comma list restricting fig9's prefetcher axis
#                        (exported as TRIDENT_FIG9_HWPF; e.g.
#                        --hwpf sb8x8,dcpt,tskid); default: full arsenal
#   TRIDENT_BENCH_JOBS   worker threads per binary (default: all cores)
#   TRIDENT_BENCH_INSTR  override the full per-run budget before quartering
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$REPO_ROOT/build"

while [[ $# -gt 0 ]]; do
  case "$1" in
    --hwpf)
      [[ $# -ge 2 ]] || { echo "error: --hwpf needs a value" >&2; exit 2; }
      export TRIDENT_FIG9_HWPF="$2"
      shift 2
      ;;
    *)
      BUILD_DIR="$1"
      shift
      ;;
  esac
done

cmake -B "$BUILD_DIR" -S "$REPO_ROOT"
cmake --build "$BUILD_DIR" -j

export TRIDENT_BENCH_QUICK=1

FIGURES=(
  fig2_baseline
  fig3_overhead
  fig4_coverage
  fig5_speedup
  fig6_breakdown
  fig7_sensitivity_window
  fig8_sensitivity_dlt
  fig9_hw_vs_sw
  fig10_selector
  ablation_adaptivity
)

for FIG in "${FIGURES[@]}"; do
  echo
  echo "### $FIG"
  "$BUILD_DIR/bench/$FIG"
done

echo
echo "all figures completed."
