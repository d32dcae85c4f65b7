#!/usr/bin/env bash
# Regenerates every committed golden in tests/golden/ from the current
# build: the stat-registry snapshots (fuzz_golden_test) and the sweep
# fingerprints (sweep_identity_test). Run this after an *intentional*
# behaviour change, then review the resulting diff like any other code
# change before committing it.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
GOLDEN_TESTS=(fuzz_golden_test sweep_identity_test)

cmake --build "$BUILD_DIR" --target "${GOLDEN_TESTS[@]}" -j
for T in "${GOLDEN_TESTS[@]}"; do
  (cd "$BUILD_DIR/tests" && TRIDENT_UPDATE_GOLDENS=1 "./$T")
done

echo
echo "Golden snapshots rewritten; review before committing:"
git -C "$REPO_ROOT" status --short -- tests/golden
