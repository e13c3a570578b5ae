#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs one workload in its own
# process, so rss_peak_mib is that workload's. Run from the repository root:
#
#   benchmark/run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
#   benchmark/run.sh --manifest > BENCHMARK.json
#   benchmark/run.sh [--seed N] ...        # no --workload: all four, one after another
#
# The last line of each workload's output is its result as one JSON object.
# Exits non-zero when the build fails or a run is incorrect or invalid.
set -euo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
bin="$target/release/unfold-benchmark"

export UNFOLD_BENCH_OUT="$here/out"
if [ -z "${UNFOLD_BENCH_COMMIT:-}" ]; then
  UNFOLD_BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
fi
export UNFOLD_BENCH_COMMIT

case " $* " in
  *" --workload "* | *" --manifest "*) exec "$bin" "$@" ;;
esac
status=0
for w in offline_ted stream_eesen_lat serve_paced serve_tcp_feat; do
  "$bin" --workload "$w" "$@" || status=$?
done
exit "$status"
