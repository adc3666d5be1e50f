#!/usr/bin/env bash
# Refreshes the golden-table snapshots under tests/golden/ from the
# current build. Run after an INTENTIONAL table change, review the diff,
# and commit the updated snapshots together with the change that caused
# them — GoldenTablesTest byte-compares every driver against these files.
#
# Usage: scripts/update_goldens.sh [BUILD_DIR]   (default: build)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$REPO_ROOT/build}"
GOLDEN_DIR="$REPO_ROOT/tests/golden"

DRIVERS=(
  bench_table1_platforms
  bench_table2_additivity
  bench_table3_lr
  bench_table4_rf
  bench_table5_nn
  bench_table6_correlation
  bench_table7a_class_b
  bench_table7b_class_c
  bench_serving_engine
)

cmake --build "$BUILD_DIR" --target "${DRIVERS[@]}"

mkdir -p "$GOLDEN_DIR"
for driver in "${DRIVERS[@]}"; do
  echo "capturing $driver"
  # Default flags only: the snapshots record exactly what a bare
  # invocation prints (the thread-count invariance is asserted by the
  # test, not baked into the capture).
  "$BUILD_DIR/bench/$driver" > "$GOLDEN_DIR/$driver.txt"
done

echo "done; review with: git diff tests/golden"
