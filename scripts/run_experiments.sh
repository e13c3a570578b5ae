#!/usr/bin/env bash
# Regenerates every paper table/figure + ablation into results/.
# Usage: scripts/run_experiments.sh [utterances-per-task]
set -euo pipefail
cd "$(dirname "$0")/.."
UTTS="${1:-8}"
OUT=results
mkdir -p "$OUT"
BINS=(
  fig01_time_breakdown fig02_dataset_sizes
  table1_wfst_sizes table2_compressed_sizes table3_configs table4_gpu_config
  fig06_cache_miss_sweep fig07_offset_table fig08_memory_footprint
  fig09_search_energy fig10_power_breakdown fig11_bandwidth
  table5_decode_latency table6_wer fig12_overall_time fig13_overall_energy
  ablation_lm_lookup ablation_preemptive_pruning ablation_quantization
  ablation_cache_split ablation_two_pass ablation_beam_sweep
  ablation_scoring_substrate overall_summary
)
cargo build --release -p unfold-bench --bins
for b in "${BINS[@]}"; do
  echo "== $b"
  EXTRA=()
  # The headline run also exports decode-time telemetry (JSONL).
  if [[ "$b" == overall_summary ]]; then
    EXTRA=(--metrics "$OUT/overall_summary_metrics.jsonl")
  fi
  UNFOLD_UTTS="$UTTS" "target/release/$b" "${EXTRA[@]}" | tee "$OUT/$b.md"
done
# Optional: run the differential verification campaign alongside the
# experiments (UNFOLD_VERIFY=<cases>, e.g. UNFOLD_VERIFY=256). Any
# divergence fails the script and leaves repro files in results/verify/.
if [[ -n "${UNFOLD_VERIFY:-}" ]]; then
  echo "== verify (${UNFOLD_VERIFY} cases)"
  cargo build --release -p unfold-verify
  target/release/unfold-verify --cases "$UNFOLD_VERIFY" --seed 42 \
    --out "$OUT/verify" | tee "$OUT/verify_campaign.log"
fi
echo "results written to $OUT/"
