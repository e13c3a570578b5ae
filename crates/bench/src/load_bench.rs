//! Machine-readable model cold-load benchmark: owned vs mmap bundles.
//!
//! `cargo run --release -p unfold-bench --bin load_bench` packs the
//! `UNFOLD_BENCH_TASK` preset (default `tedlium`) into a `.unfb`
//! bundle, then measures — in a **fresh subprocess per sample**, so
//! every open is process-cold — how long [`Models::open`] (owned:
//! read + heap copy + eager checksum) and [`Models::open_mmap`]
//! (zero-copy: map, parse the section table, then stream each model
//! section's checksum *in place* while binding the models)
//! take, and what each does to the process's memory high-water mark.
//! Results land in `BENCH_load.json` (override with
//! `UNFOLD_BENCH_LOAD_JSON`) next to `BENCH_decode.json` /
//! `BENCH_serve.json`.
//!
//! The number this exists to pin: the mmap open must *not* copy the
//! arc bitstream. Both modes checksum every model payload before any
//! decode can run, but the owned open also pays an O(bundle bytes)
//! heap copy, while the mapped open leaves the streams as clean,
//! reclaimable file-backed pages — so the split shows up in
//! `anon_delta_kb` (near zero for mapped, the whole bundle for owned)
//! rather than in plain RSS, which the verifying CRC pass faults in
//! on both sides.

use std::path::Path;
use std::time::Instant;

use unfold::{Models, System, TaskSpec};

/// One cold-open probe, taken inside a child process.
#[derive(Debug, Clone, PartialEq)]
pub struct LoadSample {
    /// Wall-clock milliseconds for `Models::open{,_mmap}`.
    pub open_ms: f64,
    /// Resident-set growth across the open (KiB, from `/proc`). For
    /// mapped opens this includes clean file-backed pages the kernel's
    /// fault-around pulled in — reclaimable, not copies.
    pub rss_delta_kb: i64,
    /// *Anonymous* (heap) resident growth across the open (KiB,
    /// `RssAnon`). This is the actually-copied memory: an owned open
    /// pays the whole bundle here, a mapped open pays only parsed
    /// headers.
    pub anon_delta_kb: i64,
    /// Process peak RSS after the open (KiB, `VmHWM`).
    pub vm_hwm_kb: i64,
    /// LMs the opened facade exposes (sanity: the open really parsed).
    pub lms: usize,
    /// Total arc-stream payload across all model sections (KiB) — the
    /// bytes a mapped open must not *copy*. Both open modes stream a
    /// verifying CRC over them, so they fault in as (reclaimable,
    /// file-backed) RSS either way; only the owned open also pays for
    /// them in `anon_delta_kb`.
    pub arc_stream_kb: i64,
}

/// `VmHWM` / `VmRSS` / `RssAnon` in KiB from `/proc/self/status`;
/// zeros where procfs is unavailable (the bench is then timing-only).
pub fn vm_status_kb() -> (i64, i64, i64) {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return (0, 0, 0);
    };
    let field = |key: &str| -> i64 {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmHWM:"), field("VmRSS:"), field("RssAnon:"))
}

/// Opens `path` in `mode` (`"owned"` or `"mmap"`) once, measuring the
/// open. Runs in the child process of the subprocess protocol, but is
/// callable in-process for tests.
pub fn probe(mode: &str, path: &Path) -> LoadSample {
    let (_, rss_before, anon_before) = vm_status_kb();
    let t0 = Instant::now();
    let models = match mode {
        "mmap" => Models::open_mmap(path),
        _ => Models::open(path),
    }
    .expect("bundle opens");
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    let lms = models.lm_names().len();
    let (hwm, rss_after, anon_after) = vm_status_kb();
    // After the RSS read: re-derive the arc-stream totals from the
    // section headers (pages the verifying open already faulted, so
    // this perturbs no RSS reading).
    let arc_stream_bytes = models.bundle().map_or(0, |b| {
        let am = b.am_layout().map_or(0, |l| l.arc_stream_bytes());
        let lm: usize = b
            .lm_names()
            .iter()
            .map(|n| b.lm_layout(n).map_or(0, |l| l.arc_stream_bytes()))
            .sum();
        am + lm
    });
    LoadSample {
        open_ms,
        rss_delta_kb: rss_after - rss_before,
        anon_delta_kb: anon_after - anon_before,
        vm_hwm_kb: hwm,
        lms,
        arc_stream_kb: (arc_stream_bytes / 1024) as i64,
    }
}

/// Serializes a probe as the one-line JSON the parent process parses.
pub fn sample_to_json(s: &LoadSample) -> String {
    format!(
        "{{\"open_ms\": {:.4}, \"rss_delta_kb\": {}, \"anon_delta_kb\": {}, \"vm_hwm_kb\": {}, \"lms\": {}, \"arc_stream_kb\": {}}}",
        s.open_ms, s.rss_delta_kb, s.anon_delta_kb, s.vm_hwm_kb, s.lms, s.arc_stream_kb
    )
}

/// Pulls `"key": <number>` out of a one-line JSON object — enough of a
/// parser for our own [`sample_to_json`] output, no serde needed.
fn json_num(line: &str, key: &str) -> Option<f64> {
    let tag = format!("\"{key}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parses a child's stdout line back into a [`LoadSample`].
pub fn sample_from_json(line: &str) -> Option<LoadSample> {
    Some(LoadSample {
        open_ms: json_num(line, "open_ms")?,
        rss_delta_kb: json_num(line, "rss_delta_kb")? as i64,
        anon_delta_kb: json_num(line, "anon_delta_kb")? as i64,
        vm_hwm_kb: json_num(line, "vm_hwm_kb")? as i64,
        lms: json_num(line, "lms")? as usize,
        arc_stream_kb: json_num(line, "arc_stream_kb")? as i64,
    })
}

/// Median open-time / RSS summary of one mode's samples.
#[derive(Debug, Clone)]
pub struct ModeSummary {
    /// `"owned"` or `"mmap"`.
    pub mode: String,
    /// Median cold-open wall clock (ms).
    pub open_ms: f64,
    /// Median resident-set growth across the open (KiB).
    pub rss_delta_kb: i64,
    /// Median anonymous (heap) growth across the open (KiB) — the
    /// actually-copied bytes.
    pub anon_delta_kb: i64,
    /// Median peak RSS after the open (KiB).
    pub vm_hwm_kb: i64,
}

/// The full cold-load report, serialized to `BENCH_load.json`.
#[derive(Debug, Clone)]
pub struct LoadBenchReport {
    /// Task preset the bundle was packed from.
    pub task: String,
    /// Bundle size on disk (bytes).
    pub bundle_bytes: u64,
    /// Total arc-stream payload across all model sections (KiB).
    pub arc_stream_kb: i64,
    /// LMs in the bundle.
    pub lms: usize,
    /// Cold-open subprocesses per mode.
    pub reps: usize,
    /// Per-mode medians, owned first.
    pub modes: Vec<ModeSummary>,
}

impl LoadBenchReport {
    /// Median mmap-open speedup over owned (`owned_ms / mmap_ms`).
    pub fn mmap_speedup(&self) -> f64 {
        let get = |m: &str| {
            self.modes
                .iter()
                .find(|s| s.mode == m)
                .map_or(f64::NAN, |s| s.open_ms)
        };
        get("owned") / get("mmap")
    }

    /// Serializes the report as a single JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str("  \"bench\": \"model_cold_load\",\n");
        s.push_str(&format!("  \"task\": \"{}\",\n", self.task));
        s.push_str(&format!("  \"bundle_bytes\": {},\n", self.bundle_bytes));
        s.push_str(&format!("  \"arc_stream_kb\": {},\n", self.arc_stream_kb));
        s.push_str(&format!("  \"lms\": {},\n", self.lms));
        s.push_str(&format!("  \"reps\": {},\n", self.reps));
        s.push_str(&format!(
            "  \"mmap_open_speedup\": {:.2},\n",
            self.mmap_speedup()
        ));
        s.push_str("  \"modes\": [\n");
        for (i, m) in self.modes.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"mode\": \"{}\", \"open_ms\": {:.4}, \"rss_delta_kb\": {}, \"anon_delta_kb\": {}, \"vm_hwm_kb\": {}}}{}\n",
                m.mode,
                m.open_ms,
                m.rss_delta_kb,
                m.anon_delta_kb,
                m.vm_hwm_kb,
                if i + 1 < self.modes.len() { "," } else { "" }
            ));
        }
        s.push_str("  ]\n");
        s.push_str("}\n");
        s
    }
}

fn median_f64(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn median_i64(mut xs: Vec<i64>) -> i64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Summarizes one mode's samples by medians.
pub fn summarize(mode: &str, samples: &[LoadSample]) -> ModeSummary {
    ModeSummary {
        mode: mode.to_string(),
        open_ms: median_f64(samples.iter().map(|s| s.open_ms).collect()),
        rss_delta_kb: median_i64(samples.iter().map(|s| s.rss_delta_kb).collect()),
        anon_delta_kb: median_i64(samples.iter().map(|s| s.anon_delta_kb).collect()),
        vm_hwm_kb: median_i64(samples.iter().map(|s| s.vm_hwm_kb).collect()),
    }
}

/// Resolves the bench task preset by name (same names as
/// `decode_bench`).
pub fn task_by_name(task: &str) -> TaskSpec {
    match task {
        "tedlium" => TaskSpec::tedlium_kaldi(),
        "librispeech" => TaskSpec::librispeech(),
        "voxforge" => TaskSpec::voxforge(),
        "eesen" => TaskSpec::tedlium_eesen(),
        _ => TaskSpec::tiny(),
    }
}

/// Builds `task`, packs it (with one variant LM so the bundle carries
/// a registry-shaped payload), and writes the bundle to a temp path
/// the caller must remove. Returns the path.
pub fn pack_bench_bundle(task: &str) -> std::path::PathBuf {
    let spec = task_by_name(task);
    let system = System::build(&spec);
    let bytes = unfold::pack_system(&system, &[1]).expect("pack succeeds");
    let path = std::env::temp_dir().join(format!(
        "unfold-load-bench-{}-{}.unfb",
        std::process::id(),
        task
    ));
    std::fs::write(&path, bytes).expect("bundle written");
    path
}

/// Output path: `UNFOLD_BENCH_LOAD_JSON`, or `BENCH_load.json` at the
/// workspace root.
pub fn default_path() -> String {
    std::env::var("UNFOLD_BENCH_LOAD_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_load.json", env!("CARGO_MANIFEST_DIR")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_roundtrips_and_mmap_does_not_copy() {
        let path = pack_bench_bundle("tiny");
        let bytes = std::fs::metadata(&path).unwrap().len() as i64;

        let owned = probe("owned", &path);
        let mapped = probe("mmap", &path);
        std::fs::remove_file(&path).ok();

        assert_eq!(owned.lms, 2, "default + one variant");
        assert_eq!(mapped.lms, 2);
        assert!(owned.open_ms > 0.0 && mapped.open_ms > 0.0);
        assert!(mapped.arc_stream_kb > 0, "layouts report arc streams");
        assert!(mapped.arc_stream_kb <= bytes / 1024);

        // In-process RSS deltas are noisy (the two probes share one
        // heap), so only pin the direction procfs can actually show:
        // a mapped open must never grow residency by more than the
        // owned copy does, give or take a page-granularity fudge.
        if owned.vm_hwm_kb > 0 {
            assert!(
                mapped.rss_delta_kb <= owned.rss_delta_kb.max(bytes / 1024) + 64,
                "mmap open copied the bundle: owned {owned:?} vs mapped {mapped:?}"
            );
        }

        for s in [&owned, &mapped] {
            let line = sample_to_json(s);
            let back = sample_from_json(&line).expect("parses");
            // open_ms is serialized at 4 decimals; the rest is exact.
            assert!(
                (back.open_ms - s.open_ms).abs() < 1e-4,
                "round-trip of {line}"
            );
            assert_eq!(back.rss_delta_kb, s.rss_delta_kb);
            assert_eq!(back.anon_delta_kb, s.anon_delta_kb);
            assert_eq!(back.vm_hwm_kb, s.vm_hwm_kb);
            assert_eq!(back.lms, s.lms);
            assert_eq!(back.arc_stream_kb, s.arc_stream_kb);
        }
    }

    #[test]
    fn report_serializes_with_all_keys() {
        let report = LoadBenchReport {
            task: "tiny".into(),
            bundle_bytes: 1234,
            arc_stream_kb: 1,
            lms: 2,
            reps: 3,
            modes: vec![
                summarize(
                    "owned",
                    &[LoadSample {
                        open_ms: 10.0,
                        rss_delta_kb: 800,
                        anon_delta_kb: 780,
                        vm_hwm_kb: 9000,
                        lms: 2,
                        arc_stream_kb: 1,
                    }],
                ),
                summarize(
                    "mmap",
                    &[LoadSample {
                        open_ms: 0.5,
                        rss_delta_kb: 16,
                        anon_delta_kb: 4,
                        vm_hwm_kb: 8200,
                        lms: 2,
                        arc_stream_kb: 1,
                    }],
                ),
            ],
        };
        assert!((report.mmap_speedup() - 20.0).abs() < 1e-9);
        let json = report.to_json();
        for key in [
            "\"bench\": \"model_cold_load\"",
            "\"bundle_bytes\"",
            "\"mmap_open_speedup\"",
            "\"modes\": [",
            "\"rss_delta_kb\"",
            "\"anon_delta_kb\"",
            "\"arc_stream_kb\"",
            "\"vm_hwm_kb\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
    }
}
