//! Per-phase timing of the decode kernel — the runnable companion to
//! DESIGN.md §13.
//!
//! The kernel reports `threshold` / `batch_probe` / `expand` /
//! `closure` durations through `TraceSink::kernel_phase`, but only to
//! sinks that ask (`wants_kernel_timing`). This example decodes a task
//! preset under a `MetricsSink` and prints where the frame budget goes.
//!
//! ```bash
//! cargo run --release -p unfold-examples --bin kernel_phases
//! UNFOLD_TASK=tiny cargo run --release -p unfold-examples --bin kernel_phases
//! ```

use unfold::{System, TaskSpec};
use unfold_decoder::{DecodeConfig, DecodeScratch, MetricsSink, OtfDecoder};

fn main() {
    let task = std::env::var("UNFOLD_TASK").unwrap_or_else(|_| "tedlium".into());
    let spec = match task.as_str() {
        "tedlium" => TaskSpec::tedlium_kaldi(),
        "librispeech" => TaskSpec::librispeech(),
        "voxforge" => TaskSpec::voxforge(),
        "eesen" => TaskSpec::tedlium_eesen(),
        _ => TaskSpec::tiny(),
    };
    println!("building {} ...", spec.name);
    let system = System::build(&spec);
    let utts = system.test_utterances(8);
    let frames: usize = utts.iter().map(|u| u.scores.num_frames()).sum();

    let config = DecodeConfig::builder()
        .olt_entries(32 * 1024)
        .build()
        .expect("valid config");
    let decoder = OtfDecoder::new(config);
    let mut scratch = DecodeScratch::new();

    // Phase breakdown: a MetricsSink answers `wants_kernel_timing`, so
    // the kernel reads the clock around each phase.
    let mut sink = MetricsSink::new();
    for u in &utts {
        decoder.decode_with(
            &system.am_comp,
            &system.lm_comp,
            &u.scores,
            &mut scratch,
            &mut sink,
        );
    }
    let total_ns: u64 = sink
        .kernel_phases()
        .stats()
        .iter()
        .map(|s| s.total_ns)
        .sum();
    println!("\nkernel phase breakdown ({frames} frames):");
    for s in sink.kernel_phases().stats() {
        println!(
            "  {:<12} {:>9.3} ms  ({:>5.1}%)  {:>7} calls  {:>6} ns/call",
            s.name,
            s.total_ns as f64 / 1e6,
            100.0 * s.total_ns as f64 / total_ns.max(1) as f64,
            s.count,
            s.mean_ns(),
        );
    }
}
