//! The one place a workload or metric name is spelled.
//!
//! `BENCHMARK.json` is generated from these tables (`--manifest`), the
//! result line is checked against them before it is printed, and a
//! self-test pins the checked-in manifest to the generated text.

use std::collections::BTreeMap;

/// How long one run measures, in seconds (`run_seconds` in the manifest).
pub const RUN_SECONDS: u32 = 20;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a higher value is better.
    pub higher: bool,
    /// Regression bound as a share of the parent's median; end-to-end only.
    pub bound: Option<f64>,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "offline_ted",
        why: "small frontier (p50 ~11 tokens), owned models, warm scratch: per-frame kernel overhead and the arc-staging arena do the work; serve, wire and scoring do none",
    },
    Workload {
        name: "stream_eesen_lat",
        why: "same decoder, large frontier (CTC, biggest LM), mmap models, tape recording, streaming partials and lattice build: a kernel gain that costs LM-heavy or lattice search shows here",
    },
    Workload {
        name: "serve_paced",
        why: "open loop at 200 sessions/s into the in-process lockstep server: search is cheap per frame, so the core mutex, wakeups, EDF queue and quantum size do the work; no TCP",
    },
    Workload {
        name: "serve_tcp_feat",
        why: "full path wire -> GMM score -> search -> emit over TCP with 2 closed-loop connections: acoustic scoring is the largest cost (~60 %) and runs inline under the core lock",
    },
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> Metric {
    Metric {
        name,
        unit,
        higher,
        bound: None,
    }
}

/// The bounds come from `AA.md`; the README justifies each against the
/// workload it is widest on. `success_pct` (the issue's `fail_ratio`,
/// turned so that it is never 0), `wer_pct` and `model_resident_bytes`
/// are exact, so any move in them is a regression.
pub const END_TO_END: [Metric; 9] = [
    e2e("frames_per_s", "1/s", true, 0.25),
    e2e("cpu_ms_per_audio_s", "ms/s", false, 0.25),
    e2e("chunk_p50_ms", "ms", false, 0.25),
    e2e("final_p50_ms", "ms", false, 0.25),
    e2e("success_pct", "%", true, 0.001),
    e2e("wer_pct", "%", false, 0.001),
    e2e("setup_s", "s", false, 0.25),
    e2e("rss_peak_mib", "MiB", false, 0.25),
    e2e("model_resident_bytes", "bytes", false, 0.001),
];

/// Span names double as metric prefixes: a span `x` yields `x.busy_s`
/// (summed self time over one replay pass).
pub const PER_LAYER: [Metric; 73] = [
    // compress / core: move model_resident_bytes, rss_peak_mib, setup_s.
    layer("compress.bundle_bytes", "bytes", false),
    layer("compress.am_bytes", "bytes", false),
    layer("compress.lm_bytes", "bytes", false),
    layer("core.size_reduction_x", "x", true),
    layer("compress.open_owned.busy_s", "s", false),
    layer("compress.open_mmap.busy_s", "s", false),
    layer("compress.first_touch.busy_s", "s", false),
    layer("core.batch.jobs2_speedup", "x", true),
    // decoder: move frames_per_s on offline_ted / stream_eesen_lat.
    layer("decoder.decode.busy_s", "s", false),
    layer("decoder.frames", "count", true),
    layer("decoder.us_per_frame", "us", false),
    layer("decoder.kernel.threshold.busy_s", "s", false),
    layer("decoder.kernel.batch_probe.busy_s", "s", false),
    layer("decoder.kernel.expand.busy_s", "s", false),
    layer("decoder.kernel.closure.busy_s", "s", false),
    layer("decoder.active_tokens_mean", "count", false),
    layer("decoder.am_arc_fetches", "count", false),
    layer("decoder.hash_inserts", "count", false),
    layer("decoder.lm_lookups", "count", false),
    layer("decoder.backoff_hops", "count", false),
    layer("decoder.preemptive_prunes", "count", true),
    layer("decoder.olt.probes", "count", false),
    layer("decoder.olt.hits", "count", true),
    layer("decoder.olt.hit_ratio", "ratio", true),
    // streaming + lattice: move chunk_p50_ms / final_p50_ms on stream_eesen_lat.
    layer("decoder.stream.push.busy_s", "s", false),
    layer("decoder.stream.partial.busy_s", "s", false),
    layer("decoder.stream.finalize.busy_s", "s", false),
    layer("decoder.lattice.build.busy_s", "s", false),
    layer("decoder.lattice.nbest.busy_s", "s", false),
    layer("decoder.lattice.detail.busy_s", "s", false),
    layer("decoder.lattice.nodes", "count", false),
    layer("decoder.lattice.arcs", "count", false),
    layer("decoder.tape_overhead_ratio", "ratio", false),
    // bias: moves cpu_ms_per_audio_s on serve_paced.
    layer("bias.sessions", "count", true),
    layer("bias.decode_us_per_frame", "us", false),
    // am: moves frames_per_s and chunk_p50_ms on serve_tcp_feat.
    layer("am.gmm.score.busy_s", "s", false),
    layer("am.gmm.score.calls", "count", false),
    layer("am.gmm.us_per_frame", "us", false),
    // serve, replayed by hand through ServeCore with an explicit clock.
    layer("serve.open.busy_s", "s", false),
    layer("serve.ingest.busy_s", "s", false),
    layer("serve.ingest.calls", "count", false),
    layer("serve.evict_idle.busy_s", "s", false),
    layer("serve.lease_next.busy_s", "s", false),
    layer("serve.lease_run.busy_s", "s", false),
    layer("serve.complete_lease.busy_s", "s", false),
    layer("serve.finish.busy_s", "s", false),
    layer("serve.partial.busy_s", "s", false),
    layer("serve.take_result.busy_s", "s", false),
    layer("serve.sched_share", "ratio", false),
    layer("serve.wire.encode.busy_s", "s", false),
    layer("serve.wire.decode.busy_s", "s", false),
    layer("serve.wire.bytes_per_frame", "bytes", false),
    // The e2e run's own process CPU per pass, and what the replay cannot
    // explain of it: lock wait, wakeups, syscalls, thread hand-off.
    layer("serve.e2e_cpu_s", "s", false),
    layer("serve.unattributed_s", "s", false),
    // From the threaded e2e run's own stats.
    layer("serve.frames_per_lease_mean", "count", true),
    layer("serve.search_occupancy", "ratio", true),
    layer("serve.quanta", "count", false),
    layer("serve.deadline_misses", "count", false),
    layer("serve.rejected", "count", false),
    layer("serve.backlog_max", "count", false),
    layer("serve.session_rss_kib", "KiB", false),
    layer("obs.stats_scrape.busy_s", "s", false),
    // Harness health.
    layer("gen.late_p50_us", "us", false),
    layer("gen.late_p99_us", "us", false),
    layer("trace.overhead_ratio", "ratio", false),
    layer("trace.spans", "count", false),
    // Quality and failures of the traced pass (never gated, always shown).
    layer("replay.sessions", "count", true),
    layer("replay.failed", "count", false),
    layer("replay.wall_s", "s", false),
    layer("e2e.chunk_p99_ms", "ms", false),
    layer("e2e.final_p99_ms", "ms", false),
    layer("e2e.passes", "count", true),
    layer("e2e.fail_ratio", "ratio", false),
];

/// Values for one run, keyed by catalogued name.
#[derive(Default)]
pub struct MetricSet(BTreeMap<&'static str, f64>);

impl MetricSet {
    /// # Panics
    /// Panics when `name` is not catalogued or is set twice: both are
    /// harness bugs, and a silently invented name would escape the
    /// manifest.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|m| m.name == name),
            "metric '{name}' is not in the catalogue"
        );
        assert!(
            self.0.insert(name, value).is_none(),
            "metric '{name}' set twice"
        );
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// The last line of a run: every metric of `table`, in table order.
/// A per-layer metric a workload never touches reads 0.
///
/// # Panics
/// Panics when an end-to-end metric is missing or any value is not finite.
pub fn result_line(
    table: &[Metric],
    set: &MetricSet,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|m| {
            let v = match (set.get(m.name), m.bound) {
                (Some(v), _) => v,
                (None, None) => 0.0,
                (None, Some(_)) => panic!("end-to-end metric '{}' was not measured", m.name),
            };
            assert!(v.is_finite(), "metric '{}' is not finite: {v}", m.name);
            format!(
                "{}: {{\"value\": {v}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let better = |m: &Metric| if m.higher { "higher" } else { "lower" };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(w.name),
                json_str(w.why)
            )
        })
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m)),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(better(m))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_declared_once_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for name in WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name}");
            assert!(seen.insert(name), "{name} declared twice");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16 && !m.unit.is_empty(), "{}", m.name);
            assert!(
                m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {}",
                m.unit
            );
        }
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in &END_TO_END {
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && !m.higher));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn checked_in_manifest_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `benchmark/run.sh --manifest > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }

    #[test]
    fn result_line_prints_every_table_entry_and_zero_fills_layers() {
        let mut set = MetricSet::default();
        set.set("decoder.frames", 12.0);
        let line = result_line(&PER_LAYER, &set, true, 3, 0);
        for m in &PER_LAYER {
            assert_eq!(line.matches(&format!("\"{}\":", m.name)).count(), 1);
        }
        assert!(line.contains("\"decoder.frames\": {\"value\": 12, \"unit\": \"count\"}"));
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn uncatalogued_names_are_refused() {
        MetricSet::default().set("made.up", 1.0);
    }

    #[test]
    #[should_panic(expected = "was not measured")]
    fn a_missing_end_to_end_metric_is_refused() {
        result_line(&END_TO_END, &MetricSet::default(), true, 1, 0);
    }
}
