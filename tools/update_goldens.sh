#!/usr/bin/env bash
# Regenerates every committed golden in tests/golden/ from the current
# build: the stat-registry snapshots and the sweep fingerprints, all
# written by the identity harness (tests/fuzz_golden_test.cpp) run
# unfiltered under TRIDENT_UPDATE_GOLDENS. Run this after an *intentional*
# behaviour change, then review the resulting diff like any other code
# change before committing it.
#
# Usage: tools/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"

cmake --build "$BUILD_DIR" --target fuzz_golden_test -j
(cd "$BUILD_DIR/tests" && TRIDENT_UPDATE_GOLDENS=1 ./fuzz_golden_test)

echo
echo "Golden snapshots rewritten; review before committing:"
git -C "$REPO_ROOT" status --short -- tests/golden
