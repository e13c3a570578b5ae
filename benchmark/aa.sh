#!/usr/bin/env bash
# A/A check: two interleaved sets of runs of the same build, one run per
# seed and workload in each set. Per metric x workload: medians, quartiles,
# spread, and the gap between the sets against the metric's bound; per
# metric: the workload it is widest on.
#
#   benchmark/aa.sh [SEEDS] [SECONDS]      # defaults: 10 seeds, run_seconds
#   AA_RESUME=1 benchmark/aa.sh ...        # keep the runs already logged
#
# Each run's output is kept in benchmark/out/aa/<set>.<workload>.<seed>.log.
# Writes benchmark/AA.md. Exits non-zero when a run fails, when a spread
# exceeds its bound, when the sets' medians differ (either way) by more
# than the bound, or when a metric that is exact per seed differs between
# the two runs of a seed. Takes about SEEDS x 8 x (SECONDS + 7) seconds.
set -uo pipefail

here="$(cd "$(dirname "$0")" && pwd)"
seeds="${1:-10}"
seconds="${2:-$("$here/run.sh" --manifest | sed -n 's/.*"run_seconds": \([0-9]*\).*/\1/p')}"
logs="$here/out/aa"
[ -n "${AA_RESUME:-}" ] || rm -rf "$logs"
mkdir -p "$logs"

for seed in $(seq 1 "$seeds"); do
  for w in offline_ted stream_eesen_lat serve_paced serve_tcp_feat; do
    # Alternate which set goes first so drift hits both alike.
    if [ $((seed % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
    for set in $order; do
      log="$logs/$set.$w.$seed.log"
      if [ -s "$log" ] && tail -n 1 "$log" | grep -q '^{"correct"'; then continue; fi
      # A failed run is reported below, with its log; it does not end the set.
      "$here/run.sh" --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 > "$log" 2>&1
      echo "aa: set $set seed $seed $w exit $?" >&2
    done
  done
done

python3 - "$logs" "$here/../BENCHMARK.json" "$here/AA.md" "$seeds" "$seconds" <<'PY'
import glob, json, os, re, statistics, sys
logs, manifest, out, seeds, seconds = sys.argv[1:6]
spec = json.load(open(manifest))
# Exact on equal seeds: the two runs of a seed must agree to the last digit.
EXACT = ["success_pct", "wer_pct", "model_resident_bytes"]
# Printed by every run as `# info <name> <value>`; tracked here, gated nowhere.
INFO = ["raw.frames_per_s", "raw.cpu_ms_per_audio_s", "raw.chunk_p50_ms", "raw.final_p50_ms", "raw.setup_s",
        "chunk_p99_ms", "final_p99_ms", "rss_growth_mib"]
runs, bad = [], []
for path in sorted(glob.glob(os.path.join(logs, "*.log"))):
    aset, workload, seed = os.path.basename(path)[:-4].split(".")
    text = open(path).read().splitlines() or [""]
    if not text[-1].startswith('{"correct"'):
        bad.append(f"{workload} seed {seed} set {aset}: no result, see out/aa/{os.path.basename(path)}")
        continue
    result = json.loads(text[-1])
    if not result["correct"] or result["failed"]:
        bad.append(f"{workload} seed {seed} set {aset}: incorrect or invalid, see out/aa/{os.path.basename(path)}")
        continue
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for line in text:
        m = re.match(r"# info (\S+) (\S+)$", line)
        if m:
            values[m.group(1)] = float(m.group(2))
    runs.append({"set": aset, "workload": workload, "seed": int(seed), "values": values})
# Every run's first line ends in the machine shape it ran on.
shapes = sorted({open(p).readline().split(" | ", 1)[-1].strip() for p in glob.glob(os.path.join(logs, "*.log"))})
lines = [
    "# A/A: two interleaved sets of the same build",
    "",
    f"{seeds} seeds x 4 workloads x 2 sets, {seconds} s per run; {'; '.join(shapes)}.",
    "",
    "Spread is the distance between the first and third quartile of a set's values",
    "(`statistics.quantiles(values, n=4)`) as a share of their median. Gap is how much",
    "worse set B's median is than set A's, as a share of A's (negative: B is better);",
    "both sets are the same build, so a gap past the bound fails in either direction.",
    "`exact` metrics must also read the same in both runs of every seed. `info` rows are",
    "shown and gated nowhere.",
    "",
    "| workload | metric | A median | A q1 | A q3 | A spread | B median | B spread | gap | bound | ok |",
    "|---|---|---|---|---|---|---|---|---|---|---|",
]
def stats(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med if med else 0.0
widest = {}
for w in [x["name"] for x in spec["workloads"]]:
    mine = [r for r in runs if r["workload"] == w]
    for m in spec["end_to_end"] + [{"name": n, "better": "higher" if n.endswith("_per_s") else "lower", "bound": None} for n in INFO]:
        name, bound, higher = m["name"], m["bound"], m["better"] == "higher"
        val = lambda s: [r["values"][name] for r in mine if r["set"] == s]
        if len(val("A")) < 2 or len(val("B")) < 2:
            continue
        a, b = stats(val("A")), stats(val("B"))
        gap = (a[0] - b[0]) / a[0] if higher else (b[0] - a[0]) / a[0]
        spread = max(a[3], b[3])
        if bound is None:
            ok = "info"
        else:
            # setup_s is held to the gap only: its spread is not gated.
            fine = abs(gap) <= bound and (name == "setup_s" or spread <= bound)
            if name in EXACT:
                by_seed = {}
                for r in mine:
                    by_seed.setdefault(r["seed"], set()).add(r["values"][name])
                differing = sorted(s for s, v in by_seed.items() if len(v) > 1)
                if differing:
                    fine = False
                    bad.append(f"{w} {name}: not exact per seed (seeds {differing})")
            if not fine:
                bad.append(f"{w} {name}: spread A {a[3]:.3f} B {b[3]:.3f}, gap {gap:+.3f}, bound {bound}")
            ok = ("exact" if name in EXACT else "yes") if fine else "NO"
            if name != "setup_s" and spread >= widest.get(name, (-1.0, ""))[0]:
                widest[name] = (spread, w)
        shown = "-" if bound is None else f"{bound:.1%}"
        lines.append(f"| {w} | {name} | {a[0]:.6g} | {a[1]:.6g} | {a[2]:.6g} | {a[3]:.1%} | {b[0]:.6g} | {b[3]:.1%} | {gap:+.1%} | {shown} | {ok} |")
lines += [
    "",
    "## Each bound against the workload it is widest on",
    "",
    "| metric | widest spread | on | bound | spread under a third of the bound |",
    "|---|---|---|---|---|",
]
for m in spec["end_to_end"]:
    if m["name"] in widest:
        spread, w = widest[m["name"]]
        lines.append(f"| {m['name']} | {spread:.1%} | {w} | {m['bound']:.1%} | {'yes' if spread * 3 <= m['bound'] else 'no'} |")
# The driver measures a parent and a change in separate sets, minutes
# apart. The seeds ran in order, so the first half of them against the
# second half (both sets pooled) is what such a comparison of this one
# build would have read.
lines += [
    "",
    "## Drift: the earlier half of the seeds against the later half",
    "",
    "Runs are made in seed order, so this is the same build measured some twenty minutes",
    "apart: the later half's median as a share of the earlier half's, minus one.",
    "",
    "| workload | metric | as measured | calibrated |",
    "|---|---|---|---|",
]
half = int(seeds) // 2
for w in [x["name"] for x in spec["workloads"]]:
    for name in ["frames_per_s", "cpu_ms_per_audio_s", "chunk_p50_ms", "final_p50_ms", "setup_s"]:
        def drift(key):
            early = [r["values"][key] for r in runs if r["workload"] == w and r["seed"] <= half and key in r["values"]]
            late = [r["values"][key] for r in runs if r["workload"] == w and r["seed"] > half and key in r["values"]]
            return statistics.median(late) / statistics.median(early) - 1 if early and late else float("nan")
        lines.append(f"| {w} | {name} | {drift('raw.' + name):+.1%} | {drift(name):+.1%} |")
lines += ["", "All within bounds." if not bad else "Out of bounds:"] + [f"- {b}" for b in bad]
open(out, "w").write("\n".join(lines) + "\n")
print("\n".join(lines[-(len(bad) + 1):]))
sys.exit(1 if bad else 0)
PY
