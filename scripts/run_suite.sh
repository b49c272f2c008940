#!/usr/bin/env bash
# Run the complete table/figure/ablation suite in a cache-friendly order
# (tables first so the figure benches reuse their fine-tuned checkpoints),
# then the microbenchmarks. Usage: scripts/run_suite.sh [build-dir]
set -euo pipefail
BUILD="${1:-build}"

BENCHES=(
  table2_datasets
  table1_openllm
  fig1_recovery
  fig2_metrics
  fig2_embedding
  fig3_dataset_grid
  ablation_metrics
  ablation_datasize
  ablation_merge
  ablation_distill
  ablation_width_depth
  ablation_kd
  ablation_compress
  micro_substrate
)

declare -a results
failed=0
for bench in "${BENCHES[@]}"; do
  echo "=============================================================="
  echo "== ${bench}"
  echo "=============================================================="
  if [[ ! -x "${BUILD}/bench/${bench}" ]]; then
    echo "!! ${bench} MISSING (not built?)"
    results+=("MISSING  ${bench}")
    failed=$((failed + 1))
    continue
  fi
  # A failing bench must not abort the suite under `set -e`; record and go on.
  if "${BUILD}/bench/${bench}"; then
    results+=("PASS     ${bench}")
  else
    echo "!! ${bench} FAILED (exit $?)"
    results+=("FAIL     ${bench}")
    failed=$((failed + 1))
  fi
done

echo "=============================================================="
echo "== suite summary"
echo "=============================================================="
printf '%s\n' "${results[@]}"
echo "-- $((${#BENCHES[@]} - failed))/${#BENCHES[@]} benches passed"
exit "$((failed > 0 ? 1 : 0))"
