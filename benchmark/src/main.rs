//! The UNFOLD decode-and-serve benchmark: four workloads, end-to-end
//! metrics from untraced runs, per-layer metrics from a traced replay.
//!
//! `benchmark/run.sh` builds and runs this; see `benchmark/README.md`.

mod api;
mod catalog;
mod decode;
mod harness;
mod inputs;
mod serve;
mod spans;
mod stats;
mod sys;
mod yardstick;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use api::{Probe, Sink};
use catalog::{MetricSet, END_TO_END, PER_LAYER, WORKLOADS};
use harness::{Budget, Workload};
use spans::{Busy, Tracer};

/// `setup_s` is the median of this many set-ups.
const SETUPS: usize = 25;

/// `wer_pct` is the oracle's WER over a pinned evaluation set: this many
/// utterances of the workload's shape drawn from this seed, whatever
/// `--seed` says. Over the seeded inputs WER moves 3-12 % from seed to
/// seed, and a bound wide enough to hold that would let a real loss of
/// accuracy through; over a pinned set it is one exact number per build,
/// so any move is the program's. The timed transcripts of the seeded
/// inputs are checked bit for bit against the same oracle.
const EVAL_SEED: u64 = 0x0E7A_15E7;
const EVAL_UTTS: usize = 256;
const EVAL_UTTS_SMOKE: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

const USAGE: &str =
    "usage: run.sh --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] | --manifest";

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--manifest" => return Ok(None),
            "--smoke" => args.smoke = true,
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds <= 60.0) {
        return Err(format!(
            "--seconds must be in (0, 60], got {}",
            args.seconds
        ));
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!("--workload must be one of {}", names.join(", ")));
    }
    Ok(Some(args))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", catalog::manifest_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "offline_ted" => run::<decode::OfflineTed>(&args),
        "stream_eesen_lat" => run::<decode::StreamEesenLat>(&args),
        "serve_paced" => run::<serve::ServePaced>(&args),
        "serve_tcp_feat" => run::<serve::ServeTcpFeat>(&args),
        other => unreachable!("parse_args admitted {other}"),
    }
}

fn out_dir() -> PathBuf {
    std::env::var_os("UNFOLD_BENCH_OUT")
        .map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn run<W: Workload>(args: &Args) -> ExitCode {
    let machine = sys::machine();
    println!(
        "# {} seed={} seconds={} trace={} smoke={} | nproc={} cpu=\"{}\" commit={}",
        W::NAME,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        machine.nproc,
        machine.cpu_model,
        machine.commit
    );
    let out = out_dir();
    let (task, n, words) = W::shape(args.smoke, args.trace);
    let started = Instant::now();
    let gen = api::Generator::build(task);
    // The process before any input exists: binary, runtime and the
    // generator's built models. See `measured` for what it is for.
    sys::trim_heap();
    let rss_floor_kib = sys::rss_kib();
    // The evaluation set comes and goes before the seeded inputs are
    // drawn, so it leaves no hole in the heap the program could fill
    // unseen by `rss_peak_mib`.
    let (wer_pct, gen) = if args.trace {
        (None, gen)
    } else {
        let (wer, gen) = pinned_wer::<W>(gen, args.smoke, words, &out);
        (Some(wer), gen)
    };
    let mut inputs = inputs::Inputs::draw(gen, args.seed, n, words, &out, W::NAME);
    let ready = W::setup(&inputs);
    let refs = inputs::references(W::models(&ready), &mut inputs, W::bias_of);
    let bytes = api::model_bytes(W::models(&ready));
    W::teardown(ready);
    let (seeded_wer, digest) = harness::quality(&inputs.utts, &refs);
    println!(
        "# {} inputs of {} words from {} held-out sentences, {} frames; oracle WER {seeded_wer:.3} %, transcript digest {digest:016x}; models, inputs and oracle took {:.1} s",
        inputs.utts.len(),
        inputs.words,
        inputs.eligible(),
        inputs.total_frames(),
        started.elapsed().as_secs_f64()
    );

    let (table, set, correct, attempted, failed) = if args.trace {
        traced::<W>(args, &inputs, &refs, bytes, &out)
    } else {
        let wer_pct = wer_pct.expect("an untraced run decodes the evaluation set");
        measured::<W>(args, &inputs, &refs, bytes, wer_pct, rss_floor_kib)
    };
    for m in table {
        println!(
            "{:<36} {:>16} {:<6} ({} is better)",
            m.name,
            set.get(m.name).unwrap_or(0.0),
            m.unit,
            if m.higher { "higher" } else { "lower" }
        );
    }
    println!(
        "{}",
        catalog::result_line(table, &set, correct, attempted, failed)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The oracle's WER over the pinned evaluation set (see [`EVAL_SEED`]).
/// Hands the generator back; the set itself is dropped.
fn pinned_wer<W: Workload>(
    gen: api::Generator,
    smoke: bool,
    words: usize,
    out: &Path,
) -> (f64, api::Generator) {
    let n = if smoke { EVAL_UTTS_SMOKE } else { EVAL_UTTS };
    let mut eval = inputs::Inputs::draw(gen, EVAL_SEED, n, words, out, W::NAME);
    let ready = W::setup(&eval);
    let refs = inputs::references(W::models(&ready), &mut eval, W::bias_of);
    W::teardown(ready);
    let (wer_pct, digest) = harness::quality(&eval.utts, &refs);
    println!(
        "# evaluation set: {} pinned utterances of {words} words, {} frames; oracle WER {wer_pct:.3} %, transcript digest {digest:016x}",
        eval.utts.len(),
        eval.total_frames()
    );
    (wer_pct, eval.gen)
}

type Outcome = (&'static [catalog::Metric], MetricSet, bool, u64, u64);

/// `--trace 0`: the end-to-end metrics, from an untraced run.
fn measured<W: Workload>(
    args: &Args,
    inputs: &inputs::Inputs,
    refs: &[api::DecodeResult],
    (am_bytes, lm_bytes, _): (u64, u64, u64),
    wer_pct: f64,
    rss_floor_kib: u64,
) -> Outcome {
    // The inputs and oracle transcripts stay resident through the run
    // but are the harness's, not the program's (135 of 149 MiB on
    // `offline_ted`): what drawing them added to the resident set since
    // `rss_floor_kib` was read is taken out of the peak, and the peak is
    // reset so that the generator's own transients do not set it.
    let before = yardstick::read();
    sys::trim_heap();
    let reset = sys::reset_rss_peak();
    let rss_base_kib = sys::rss_kib();
    let harness_kib = rss_base_kib.saturating_sub(rss_floor_kib);
    let mut setups: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let t0 = Instant::now();
            let ready = W::setup(inputs);
            let s = t0.elapsed().as_secs_f64();
            W::teardown(ready);
            s
        })
        .collect();
    let setup_factor = yardstick::factor(before, yardstick::read());
    let e2e = W::e2e(inputs, refs, Budget::Seconds(args.seconds));
    let mut set = MetricSet::default();
    let timing = harness::reduce(&e2e);
    for note in &timing.notes {
        println!("# {note}");
    }
    let too_short = "no latency was sampled: the run is too short, raise --seconds";
    let (cal, raw) = (&timing.calibrated, &timing.raw);
    set.set("frames_per_s", cal.frames_per_s);
    set.set("cpu_ms_per_audio_s", cal.cpu_ms_per_audio_s);
    set.set("chunk_p50_ms", cal.chunk_p50_ms.expect(too_short));
    set.set("final_p50_ms", cal.final_p50_ms.expect(too_short));
    set.set(
        "success_pct",
        100.0 * (e2e.attempted - e2e.failed) as f64 / e2e.attempted.max(1) as f64,
    );
    set.set("wer_pct", wer_pct);
    set.set("setup_s", stats::median(&setups) * setup_factor);
    let rss_peak_kib = sys::rss_peak_kib();
    set.set(
        "rss_peak_mib",
        rss_peak_kib.saturating_sub(harness_kib) as f64 / 1024.0,
    );
    set.set("model_resident_bytes", (am_bytes + lm_bytes) as f64);
    // Shown and tracked by the A/A, gated nowhere (see README): the
    // timing figures as measured, and the tails.
    println!("# info raw.frames_per_s {}", raw.frames_per_s);
    println!("# info raw.cpu_ms_per_audio_s {}", raw.cpu_ms_per_audio_s);
    println!(
        "# info raw.chunk_p50_ms {}",
        raw.chunk_p50_ms.expect(too_short)
    );
    println!(
        "# info raw.final_p50_ms {}",
        raw.final_p50_ms.expect(too_short)
    );
    println!("# info raw.setup_s {}", stats::median(&setups));
    println!(
        "# info chunk_p99_ms {}",
        timing.chunk_tail.expect(too_short).value
    );
    println!(
        "# info final_p99_ms {}",
        timing.final_tail.expect(too_short).value
    );
    println!(
        "# info rss_growth_mib {}",
        rss_peak_kib.saturating_sub(rss_base_kib) as f64 / 1024.0
    );
    setups.sort_by(|a, b| a.partial_cmp(b).expect("durations are never NaN"));
    println!(
        "# setup_s: median of {SETUPS} set-ups times calibration {setup_factor:.4}; as measured min {:.6} max {:.6}",
        setups[0],
        setups[SETUPS - 1]
    );
    println!(
        "# rss_peak_mib: the process peaked at {:.1} MiB, {:.1} MiB of it the harness's inputs and oracle transcripts; it held {:.1} MiB before they were drawn and grew {:.1} MiB after (reset taken: {reset})",
        rss_peak_kib as f64 / 1024.0,
        harness_kib as f64 / 1024.0,
        rss_floor_kib as f64 / 1024.0,
        rss_peak_kib.saturating_sub(rss_base_kib) as f64 / 1024.0
    );
    report_run(&e2e);
    let correct = e2e.failed == 0 && e2e.invalid.is_empty();
    (&END_TO_END, set, correct, e2e.attempted, e2e.failed)
}

fn report_run(e2e: &harness::E2e) {
    println!(
        "# {} repeats, {:.2} passes, {} frames; sessions attempted {} failed {} (fail_ratio {})",
        e2e.repeats.len(),
        e2e.passes,
        e2e.frames(),
        e2e.attempted,
        e2e.failed,
        e2e.failed as f64 / e2e.attempted.max(1) as f64
    );
    if let Some(late) = e2e
        .serve
        .as_ref()
        .map(|s| &s.late_us)
        .filter(|l| !l.is_empty())
    {
        println!(
            "# generator lateness over {} events: p50 {:.0} us, p99 {:.0} us, max {:.0} us",
            late.len(),
            stats::median(late),
            stats::tail(late, 99.0).value,
            late.iter().copied().fold(0.0, f64::max)
        );
    }
    for why in &e2e.invalid {
        println!("# INVALID: {why}");
    }
}

/// `--trace 1`: the per-layer metrics. A short end-to-end run gives the
/// process CPU per pass and the server's own stats; an untraced and a
/// traced replay of the same inputs give the spans, the counts and the
/// tracing overhead.
fn traced<W: Workload>(
    args: &Args,
    inputs: &inputs::Inputs,
    refs: &[api::DecodeResult],
    (am_bytes, lm_bytes, bundle_bytes): (u64, u64, u64),
    out: &Path,
) -> Outcome {
    let mut set = MetricSet::default();

    // Set-up layers, once each, cold as a starting server meets them.
    let mut setup_t = Tracer::on();
    let owned = api::open_owned(&inputs.bundle, &mut setup_t);
    drop(owned);
    let mapped = api::open_mmap(&inputs.bundle, &mut setup_t);
    std::hint::black_box(setup_t.span("compress.first_touch", 0, || {
        api::Offline::new(0).decode(
            &mapped,
            &inputs.utts[0],
            0,
            &mut Probe::Null,
            &mut Tracer::off(),
        )
    }));
    let setup_busy = Busy::of(setup_t.spans());
    for name in [
        "compress.open_owned",
        "compress.open_mmap",
        "compress.first_touch",
    ] {
        set.set(busy_metric(name), setup_busy.seconds(name));
    }
    set.set("compress.bundle_bytes", bundle_bytes as f64);
    set.set("compress.am_bytes", am_bytes as f64);
    set.set("compress.lm_bytes", lm_bytes as f64);
    set.set(
        "core.size_reduction_x",
        inputs.gen.composed_bytes() as f64 / (am_bytes + lm_bytes) as f64,
    );
    set.set(
        "core.batch.jobs2_speedup",
        api::batch_wall_s(&mapped, &inputs.utts, 0, 1)
            / api::batch_wall_s(&mapped, &inputs.utts, 0, 2),
    );
    drop(mapped);

    // Three replays of the same inputs through the same calls: bare, for
    // the wall time tracing is compared with; spans on, for the busy
    // times; counting, for the counts and the kernel's phase clocks. The
    // sink is kept out of the span replay because it costs more than the
    // spans do (ten million arc-fetch callbacks a pass on `offline_ted`).
    let untraced = W::replay(inputs, refs, &mut Probe::Null, &mut Tracer::off());
    let mut tracer = Tracer::on();
    let replayed = W::replay(inputs, refs, &mut Probe::Null, &mut tracer);
    let busy = Busy::of(tracer.spans());
    let mut sink = Sink {
        timing: true,
        ..Sink::default()
    };
    let counted = W::replay(
        inputs,
        refs,
        &mut Probe::Sink(&mut sink),
        &mut Tracer::off(),
    );

    // The end-to-end reference: whole passes over the same inputs.
    let passes = W::e2e_passes(args.seconds * 0.4, inputs, untraced.wall_s);
    let e2e = W::e2e(inputs, refs, Budget::Passes(passes));
    report_run(&e2e);

    for name in busy.names() {
        // `decoder.decode.busy_s` is the search time of every workload,
        // set below from whichever spans carry it.
        let metric = busy_metric(name);
        if !metric.is_empty() && name != "decoder.decode" {
            set.set(metric, busy.seconds(name));
        }
    }
    let frames = sink.counts.frames as f64;
    let search_s = [
        "decoder.decode",
        "decoder.stream.seed",
        "decoder.stream.push",
        "serve.lease_run",
    ]
    .iter()
    .map(|n| busy.seconds(n))
    .sum::<f64>();
    set.set("decoder.decode.busy_s", search_s);
    set.set("decoder.frames", frames);
    set.set("decoder.us_per_frame", search_s * 1e6 / frames.max(1.0));
    for (i, phase) in api::KERNEL_PHASES.iter().enumerate() {
        set.set(
            busy_metric(&format!("decoder.kernel.{phase}")),
            sink.kernel_ns[i] as f64 / 1e9,
        );
    }
    let c = &sink.counts;
    set.set(
        "decoder.active_tokens_mean",
        c.total_active as f64 / frames.max(1.0),
    );
    set.set("decoder.am_arc_fetches", c.am_arc_fetches as f64);
    set.set("decoder.hash_inserts", c.hash_inserts as f64);
    set.set("decoder.lm_lookups", c.lm_lookups as f64);
    set.set("decoder.backoff_hops", c.total_backoff_hops as f64);
    set.set("decoder.preemptive_prunes", c.preemptive_prunes as f64);
    set.set("decoder.olt.probes", c.olt_probes as f64);
    set.set("decoder.olt.hits", c.olt_hits as f64);
    set.set("decoder.olt.hit_ratio", c.olt_hit_rate());
    set.set("decoder.lattice.nodes", replayed.lattice_nodes as f64);
    set.set("decoder.lattice.arcs", replayed.lattice_arcs as f64);
    if let Some(untaped_push_s) = W::untaped_push_s(inputs) {
        set.set(
            "decoder.tape_overhead_ratio",
            untraced.push_s / untaped_push_s,
        );
    }

    // Biased sessions against all sessions, from the lease spans.
    let own = spans::self_ns(tracer.spans());
    let (mut bias_ns, mut bias_frames, mut bias_sessions) = (0u64, 0u64, 0u64);
    for (i, utt) in inputs.utts.iter().enumerate() {
        if W::bias_of(i).is_some() {
            bias_sessions += 1;
            bias_frames += utt.num_frames() as u64;
        }
    }
    for (s, ns) in tracer.spans().iter().zip(&own) {
        if s.name == "serve.lease_run" && W::bias_of(s.session as usize).is_some() {
            bias_ns += ns;
        }
    }
    set.set("bias.sessions", bias_sessions as f64);
    set.set(
        "bias.decode_us_per_frame",
        bias_ns as f64 / 1e3 / bias_frames.max(1) as f64,
    );

    set.set("am.gmm.score.calls", busy.calls("am.gmm.score") as f64);
    set.set(
        "am.gmm.us_per_frame",
        busy.seconds("am.gmm.score") * 1e6 / busy.calls("am.gmm.score").max(1) as f64,
    );
    set.set("serve.ingest.calls", busy.calls("serve.ingest") as f64);
    let sched_s: f64 = [
        "serve.open",
        "serve.ingest",
        "serve.evict_idle",
        "serve.lease_next",
        "serve.complete_lease",
        "serve.finish",
        "serve.partial",
        "serve.take_result",
    ]
    .iter()
    .map(|n| busy.seconds(n))
    .sum();
    if sched_s > 0.0 {
        set.set(
            "serve.sched_share",
            sched_s / (sched_s + busy.seconds("serve.lease_run")),
        );
    }
    set.set(
        "serve.wire.bytes_per_frame",
        replayed.wire_bytes as f64 / frames.max(1.0),
    );

    // What the replay cannot explain of the end-to-end run's CPU, per
    // pass: lock wait, wakeups, syscalls, thread hand-off, the harness.
    let e2e_cpu_per_pass = e2e.run_cpu_s / e2e.passes;
    set.set("serve.e2e_cpu_s", e2e_cpu_per_pass);
    set.set(
        "serve.unattributed_s",
        e2e_cpu_per_pass - busy.total_seconds(),
    );
    if let Some(side) = &e2e.serve {
        let st = &side.stats;
        set.set(
            "serve.frames_per_lease_mean",
            st.frames_decoded as f64 / st.quanta.max(1) as f64,
        );
        set.set("serve.search_occupancy", side.search_occupancy);
        set.set("serve.quanta", st.quanta as f64);
        set.set("serve.deadline_misses", st.deadline_misses as f64);
        set.set(
            "serve.rejected",
            (st.rejected_capacity + st.rejected_overload + st.frames_rejected) as f64,
        );
        set.set(
            "serve.backlog_max",
            e2e.repeats
                .iter()
                .map(|r| r.backlog_frames)
                .fold(0.0, f64::max),
        );
        set.set("serve.session_rss_kib", side.session_rss_kib);
        if !side.late_us.is_empty() {
            set.set("gen.late_p50_us", stats::median(&side.late_us));
            set.set("gen.late_p99_us", stats::tail(&side.late_us, 99.0).value);
        }
    }
    set.set("trace.overhead_ratio", replayed.wall_s / untraced.wall_s);
    set.set("trace.spans", tracer.spans().len() as f64);
    set.set("replay.sessions", replayed.sessions as f64);
    set.set(
        "replay.failed",
        (untraced.failed + replayed.failed + counted.failed) as f64,
    );
    set.set("replay.wall_s", untraced.wall_s);
    // The tails this box cannot hold inside any bound the manifest may
    // state; shown here, gated nowhere.
    let timing = harness::reduce(&e2e);
    if let Some(chunk) = timing.chunk_tail {
        set.set("e2e.chunk_p99_ms", chunk.value);
    }
    if let Some(fin) = timing.final_tail {
        set.set("e2e.final_p99_ms", fin.value);
    }
    set.set("e2e.passes", e2e.passes);
    set.set(
        "e2e.fail_ratio",
        e2e.failed as f64 / e2e.attempted.max(1) as f64,
    );

    // Spans stay in memory until here; kernel phases are clocked inside
    // the program per frame, so they are written as totals, not spans.
    let phases: Vec<String> = api::KERNEL_PHASES
        .iter()
        .enumerate()
        .map(|(i, p)| {
            format!(
                "{{\"kind\":\"phase\",\"name\":\"decoder.kernel.{p}\",\"busy_ns\":{}}}",
                sink.kernel_ns[i]
            )
        })
        .collect();
    let path = out.join(format!("{}.trace.jsonl", W::NAME));
    tracer
        .write_jsonl(&path, &phases)
        .expect("write the trace inside the checkout");
    println!(
        "# {} spans written to {}",
        tracer.spans().len(),
        path.display()
    );

    let failed = e2e.failed + untraced.failed + replayed.failed + counted.failed;
    let attempted = e2e.attempted + untraced.sessions + replayed.sessions + counted.sessions;
    let correct = failed == 0 && e2e.invalid.is_empty();
    (&PER_LAYER, set, correct, attempted, failed)
}

/// The catalogued `x.busy_s` metric a span `x` feeds, or `""` when the
/// span is only a parent or has no metric of its own.
fn busy_metric(span: &str) -> &'static str {
    let want = format!("{span}.busy_s");
    PER_LAYER
        .iter()
        .map(|m| m.name)
        .find(|n| *n == want)
        .unwrap_or("")
}
