//! Measures the cost of decode-time observability.
//!
//! Runs the same utterance through `OtfDecoder` with a `NullSink` and a
//! `MetricsSink`, strictly interleaved so CPU frequency drift hits both
//! sides equally, and reports low-percentile timings (the shared
//! environment is noisy; mins and low percentiles are the stable
//! signal). Also prints the per-event component costs behind the total:
//! clock-read price, counter events, frame boundaries, stage spans.
//!
//! The serve layer's always-on instrumentation is measured the same
//! way: the per-quantum cost of a `CountingSink` decode vs `NullSink`,
//! plus the unit costs of a `LogHistogram` bump and a span open/close —
//! everything a lease quantum pays beyond the search itself.
//!
//! The repo's budget for `MetricsSink` overhead on a decode is <= 5%,
//! and the serve-path (`CountingSink`) budget is the same.
//! The serve path is *always on* in production, so the example enforces
//! its budget — exit 1 when the interleaved A/B min overhead exceeds
//! 5% — and CI runs it as a check. The opt-in `MetricsSink` budget
//! stays advisory (it hovers at the budget line on shared hardware and
//! only runs when `--metrics`/`profile` is asked for): over-budget
//! prints a WARN without failing.
//!
//! ```text
//! cargo run --release -p unfold-examples --bin obs_overhead
//! ```

use std::time::Instant;
use unfold::{System, TaskSpec};
use unfold_decoder::{
    CountingSink, DecodeConfig, DecodeStage, MetricsSink, NullSink, OtfDecoder, TraceSink,
};
use unfold_obs::{LogHistogram, SpanLog};

/// The overhead budget (fraction) on the interleaved A/B minimum, for
/// both the profiling sink and the serve counting sink.
const BUDGET: f64 = 0.05;

/// Per-call cost of a counter event through dyn dispatch.
#[inline(never)]
fn time_events(sink: &mut dyn TraceSink, n: u64) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        sink.am_arc_fetch(std::hint::black_box(i), std::hint::black_box(16));
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Per-frame cost of a bare `frame_start`/`frame_end` pair. With no
/// stage transitions in between, `MetricsSink` falls back to two fresh
/// clock reads — an upper bound on what a decoded frame pays.
#[inline(never)]
fn time_frames(sink: &mut dyn TraceSink, n: u64) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        sink.frame_start(i as usize, 10);
        sink.frame_end(i as usize, 12, 1.0, 2.0);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// Per-frame cost of the stage-span pattern the decoder emits.
#[inline(never)]
fn time_stages(sink: &mut dyn TraceSink, n: u64) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        sink.stage_enter(DecodeStage::Pruning);
        sink.stage_switch(DecodeStage::Pruning, DecodeStage::ArcExpansion);
        sink.stage_exit(DecodeStage::ArcExpansion);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn main() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(1);
    let dec = OtfDecoder::new(DecodeConfig::default());

    // Event volume: what one decode actually feeds a sink.
    let mut c = CountingSink::default();
    let r = dec.decode(&system.am_comp, &system.lm_comp, &utts[0].scores, &mut c);
    println!(
        "one decode ({} words): frames={} lm_lookups={} am_arc_fetches={} lm_arc_fetches={} hash_inserts={}",
        r.words.len(),
        c.frames,
        c.lm_lookups,
        c.am_arc_fetches,
        c.lm_arc_fetches,
        c.hash_inserts
    );

    // Clock-read price on this machine (the dominant per-span cost).
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..1_000_000 {
        acc = acc.wrapping_add(Instant::now().elapsed().as_nanos() as u64);
    }
    println!(
        "Instant::now pair: {:.1} ns (checksum {acc})",
        t0.elapsed().as_nanos() as f64 / 1e6
    );
    println!("raw tick read:     {:.1} ns", {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for _ in 0..1_000_000 {
            acc = acc.wrapping_add(unfold_obs::raw_ticks());
        }
        std::hint::black_box(acc);
        t0.elapsed().as_nanos() as f64 / 1e6
    });

    // Component costs, null vs metrics.
    let mut m = MetricsSink::new();
    println!(
        "counter event:     null {:.1} ns, metrics {:.1} ns",
        time_events(&mut NullSink, 1_000_000),
        time_events(&mut m, 1_000_000)
    );
    let mut m = MetricsSink::new();
    println!(
        "frame pair:        null {:.1} ns, metrics {:.1} ns",
        time_frames(&mut NullSink, 100_000),
        time_frames(&mut m, 100_000)
    );
    let mut m = MetricsSink::new();
    println!(
        "stage span pair:   null {:.1} ns, metrics {:.1} ns",
        time_stages(&mut NullSink, 100_000),
        time_stages(&mut m, 100_000)
    );

    // Serve-path unit costs: the lock-free histogram bump every lease
    // quantum records, the exact-count merge the loadgen folds with,
    // and a session-span open/close pair on the logical clock.
    let lh = LogHistogram::new();
    let t0 = Instant::now();
    for i in 0..1_000_000u64 {
        lh.record(std::hint::black_box(i));
    }
    println!(
        "loghist record:    {:.1} ns",
        t0.elapsed().as_nanos() as f64 / 1e6
    );
    let merged = LogHistogram::new();
    let t0 = Instant::now();
    for _ in 0..10_000 {
        merged.merge_from(&lh);
    }
    println!(
        "loghist merge:     {:.1} ns",
        t0.elapsed().as_nanos() as f64 / 1e4
    );
    let mut spans = SpanLog::new();
    let t0 = Instant::now();
    for i in 0..100_000u64 {
        let id = spans.open("lease", i, 0, i);
        spans.close_with(id, i + 1, &[("frames", 16.0), ("slack_ms", 3.0)]);
    }
    println!(
        "span open+close:   {:.1} ns (cap {} retained {})",
        t0.elapsed().as_nanos() as f64 / 1e5,
        unfold_obs::span::DEFAULT_SPAN_CAP,
        spans.iter_closed().count()
    );

    // End-to-end A/B, strictly interleaved: the profiling sink
    // (MetricsSink, what `profile` pays) and the serve counting sink
    // (CountingSink, what every lease quantum pays).
    let mut t_null = Vec::new();
    let mut t_met = Vec::new();
    let mut t_count = Vec::new();
    let mut counts = CountingSink::default();
    for _ in 0..100 {
        let t = Instant::now();
        std::hint::black_box(dec.decode(
            &system.am_comp,
            &system.lm_comp,
            &utts[0].scores,
            &mut NullSink,
        ));
        t_null.push(t.elapsed().as_secs_f64());
        let mut m = MetricsSink::new();
        let t = Instant::now();
        std::hint::black_box(dec.decode(&system.am_comp, &system.lm_comp, &utts[0].scores, &mut m));
        t_met.push(t.elapsed().as_secs_f64());
        counts.reset();
        let t = Instant::now();
        std::hint::black_box(dec.decode(
            &system.am_comp,
            &system.lm_comp,
            &utts[0].scores,
            &mut counts,
        ));
        t_count.push(t.elapsed().as_secs_f64());
    }
    let metrics_over = report_ab("decode + MetricsSink", &mut t_null, &mut t_met);
    let counting_over = report_ab(
        "decode + CountingSink (serve path)",
        &mut t_null,
        &mut t_count,
    );

    let budget_pct = BUDGET * 100.0;
    // The opt-in profiling sink is advisory; the always-on serve path
    // is enforced.
    if metrics_over > BUDGET {
        eprintln!(
            "WARN: MetricsSink min overhead {:.1}% exceeds the {budget_pct:.0}% budget (advisory)",
            metrics_over * 100.0
        );
    }
    if counting_over > BUDGET {
        eprintln!(
            "FAIL: serve-path CountingSink min overhead {:.1}% exceeds the {budget_pct:.0}% budget",
            counting_over * 100.0
        );
        std::process::exit(1);
    }
    println!("\nOK: serve-path min overhead within the {budget_pct:.0}% budget");
}

/// Prints min/p10/p25 of two sorted interleaved timing sets and returns
/// the min-vs-min overhead fraction.
fn report_ab(label: &str, t_null: &mut [f64], t_sink: &mut [f64]) -> f64 {
    t_null.sort_by(f64::total_cmp);
    t_sink.sort_by(f64::total_cmp);
    println!("\n{label} A/B over {} interleaved runs:", t_null.len());
    for (lab, i) in [("min", 0usize), ("p10", 10), ("p25", 25)] {
        println!(
            "  {lab}: null {:.1} us, instrumented {:.1} us, overhead {:.1}%",
            t_null[i] * 1e6,
            t_sink[i] * 1e6,
            (t_sink[i] / t_null[i] - 1.0) * 100.0
        );
    }
    t_sink[0] / t_null[0] - 1.0
}
