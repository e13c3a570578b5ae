//! Measures the cost of decode-time observability.
//!
//! Runs the same utterance through `OtfDecoder` with a `NullSink` and a
//! `MetricsSink`, strictly interleaved so CPU frequency drift hits both
//! sides equally, and reports low-percentile timings (the shared
//! environment is noisy; mins and low percentiles are the stable
//! signal). Also prints the per-event component costs behind the total:
//! clock-read price, counter events, frame boundaries, stage spans.
//!
//! A `NullSink` decode runs the SoA kernel's copy compiled for
//! `NullSink`, in which every event call inlines away; any other sink
//! runs the copy that dispatches each event through `dyn TraceSink`.
//! The `MetricsSink` and `CountingSink` overheads printed here are
//! measured against that static copy.
//!
//! The serve layer's always-on instrumentation is measured the same
//! way. A serve worker decodes each lease quantum over `NullSink` and
//! pays, per quantum, two reads of the session's `DecodeStats` (the
//! quantum's OLT probes and hits are the change across it), a decode
//! clock and one `LogHistogram::record`, and one lease-span
//! open/close. The A/B runs a streaming decode in 8-frame quanta with
//! and without that bookkeeping.
//!
//! The repo's budget for observability overhead is <= 5%. The serve
//! path is *always on* in production, so the example enforces its
//! budget — exit 1 when the interleaved A/B min overhead exceeds 5% —
//! and CI runs it as a check. The opt-in `MetricsSink` and the test
//! sink `CountingSink` stay advisory: over budget prints a WARN
//! without failing.
//!
//! ```text
//! cargo run --release -p unfold-examples --bin obs_overhead
//! ```

use std::time::Instant;
use unfold::{System, TaskSpec};
use unfold_am::AcousticScores;
use unfold_decoder::{
    AmSource, CountingSink, DecodeConfig, DecodeStage, LmSource, MetricsSink, NullSink, OtfDecoder,
    StreamSession, TraceSink, WorkScratch,
};
use unfold_obs::{LogHistogram, SpanLog};

/// The overhead budget (fraction) on the interleaved A/B minimum: the
/// serve-path bookkeeping (enforced) and the observing sinks (advisory).
const BUDGET: f64 = 0.05;

/// Frames per lease quantum in the serve A/B: half the serve default
/// of 16, so the per-quantum bookkeeping weighs double.
const QUANTUM: usize = 8;

/// Interleaved runs per A/B side: enough for each side's minimum to
/// settle. At 500, the serve-path min-vs-min read 1-6% from run to run
/// of the same binary on a shared 2-vCPU VM.
const RUNS: usize = 2000;

/// Streams `scores` through a session over `NullSink` in
/// [`QUANTUM`]-frame quanta, as a serve worker runs leases. With
/// `bookkeeping`, each quantum also pays what a lease pays beyond the
/// search: the stats delta, a decode-time histogram bump and a
/// lease-span open/close carrying a serve lease span's six
/// attributes.
fn stream_quanta<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: DecodeConfig,
    am: &A,
    lm: &L,
    scores: &AcousticScores,
    work: &mut WorkScratch,
    mut bookkeeping: Option<(&LogHistogram, &mut SpanLog)>,
) -> usize {
    let mut s = StreamSession::new(config);
    s.seed(am, lm, work, &mut NullSink);
    let n = scores.num_frames();
    for (q, first) in (0..n).step_by(QUANTUM).enumerate() {
        let frames = first..(first + QUANTUM).min(n);
        let opened = bookkeeping.as_mut().map(|(_, spans)| {
            let stats = s.stats();
            let span = spans.open("lease", 1, 0, q as u64);
            (span, Instant::now(), stats.olt_probes, stats.olt_hits)
        });
        for t in frames.clone() {
            s.push_frame(am, lm, work, scores.frame(t), &mut NullSink);
        }
        if let (Some((hist, spans)), Some((span, started, probes0, hits0))) =
            (bookkeeping.as_mut(), opened)
        {
            hist.record(started.elapsed().as_micros() as u64);
            let (probes, hits) = (s.stats().olt_probes - probes0, s.stats().olt_hits - hits0);
            let rate = if probes == 0 {
                0.0
            } else {
                hits as f64 / probes as f64
            };
            spans.close_with(
                span,
                q as u64 + 1,
                &[
                    ("frames", frames.len() as f64),
                    ("olt_hit_rate", rate),
                    ("olt_probes", probes as f64),
                    ("lm_gen", 0.0),
                    ("bias_gen", 0.0),
                    ("slack_ms", 1.0),
                ],
            );
        }
    }
    s.finalize(am, &mut NullSink).words.len()
}

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
    // (MetricsSink, what `profile` pays), the test sink (CountingSink)
    // and the serve path (a NullSink stream in lease quanta plus the
    // per-quantum bookkeeping, what every lease pays).
    let serve_cfg = DecodeConfig::builder().olt_entries(1024).build().unwrap();
    let mut work = WorkScratch::new();
    work.configure_olt(serve_cfg.olt_entries);
    let hist = LogHistogram::new();
    let mut lease_spans = SpanLog::new();
    let mut t_null = Vec::new();
    let mut t_met = Vec::new();
    let mut t_count = Vec::new();
    let mut t_bare = Vec::new();
    let mut t_serve = Vec::new();
    let mut counts = CountingSink::default();
    let (am, lm, scores) = (&system.am_comp, &system.lm_comp, &utts[0].scores);
    for i in 0..RUNS {
        let t = Instant::now();
        std::hint::black_box(dec.decode(am, lm, scores, &mut NullSink));
        t_null.push(t.elapsed().as_secs_f64());
        let mut m = MetricsSink::new();
        let t = Instant::now();
        std::hint::black_box(dec.decode(am, lm, scores, &mut m));
        t_met.push(t.elapsed().as_secs_f64());
        counts.reset();
        let t = Instant::now();
        std::hint::black_box(dec.decode(am, lm, scores, &mut counts));
        t_count.push(t.elapsed().as_secs_f64());
        // The serve pair alternates which side runs first.
        for instrumented in [i % 2 == 0, i % 2 != 0] {
            let bookkeeping = instrumented.then_some((&hist, &mut lease_spans));
            let t = Instant::now();
            std::hint::black_box(stream_quanta(
                serve_cfg,
                am,
                lm,
                scores,
                &mut work,
                bookkeeping,
            ));
            let spent = t.elapsed().as_secs_f64();
            if instrumented {
                t_serve.push(spent);
            } else {
                t_bare.push(spent);
            }
        }
    }
    let metrics_over = report_ab("decode + MetricsSink", &mut t_null, &mut t_met);
    let counting_over = report_ab("decode + CountingSink", &mut t_null, &mut t_count);
    let serve_over = report_ab(
        "serve path: NullSink quanta + stats delta, histogram, lease span",
        &mut t_bare,
        &mut t_serve,
    );

    let budget_pct = BUDGET * 100.0;
    // The observing sinks are advisory; the always-on serve path is
    // enforced.
    for (name, over) in [
        ("MetricsSink", metrics_over),
        ("CountingSink", counting_over),
    ] {
        if over > BUDGET {
            eprintln!(
                "WARN: {name} min overhead {:.1}% exceeds the {budget_pct:.0}% budget (advisory)",
                over * 100.0
            );
        }
    }
    if serve_over > BUDGET {
        eprintln!(
            "FAIL: serve-path min overhead {:.1}% exceeds the {budget_pct:.0}% budget",
            serve_over * 100.0
        );
        std::process::exit(1);
    }
    println!("\nOK: serve-path min overhead within the {budget_pct:.0}% budget");
}

/// Prints min/p10/p25 of two sorted interleaved timing sets (baseline,
/// instrumented) and returns the min-vs-min overhead fraction.
fn report_ab(label: &str, t_base: &mut [f64], t_sink: &mut [f64]) -> f64 {
    t_base.sort_by(f64::total_cmp);
    t_sink.sort_by(f64::total_cmp);
    let n = t_base.len();
    println!("\n{label} A/B over {n} interleaved runs:");
    for (lab, i) in [("min", 0usize), ("p10", n / 10), ("p25", n / 4)] {
        println!(
            "  {lab}: baseline {:.1} us, instrumented {:.1} us, overhead {:.1}%",
            t_base[i] * 1e6,
            t_sink[i] * 1e6,
            (t_sink[i] / t_base[i] - 1.0) * 100.0
        );
    }
    t_sink[0] / t_base[0] - 1.0
}
