#![warn(missing_docs)]

//! Command-line interface for the UNFOLD reproduction.
//!
//! Subcommands:
//!
//! * `build`    — build a task's models and write the compressed
//!   `.unfa`/`.unfl` files plus an ARPA dump of the LM,
//! * `pack`     — build a task's models and write one `.unfb` bundle
//!   (AM + one or more named LMs + symbols + metadata),
//! * `inspect`  — print a bundle's section table and metadata after
//!   verifying every checksum,
//! * `decode`   — load compressed models and decode synthesized test
//!   utterances, printing transcripts and WER,
//! * `simulate` — run the accelerator model (UNFOLD or the baseline)
//!   over a task and print the performance/energy summary,
//! * `profile`  — decode with telemetry enabled and print the stage
//!   breakdown plus frame-latency percentiles,
//! * `sizes`    — print the dataset size table for a task,
//! * `verify`   — replay an `unfold-verify` repro file through the full
//!   differential check matrix,
//! * `serve`    — run the multi-session streaming decode server on a
//!   TCP port until a client sends `Shutdown`,
//! * `loadgen`  — drive a closed-loop load test against a running
//!   server and write the latency report to `BENCH_serve.json`,
//!   optionally scraping live stats mid-run,
//! * `stats`    — scrape a running server's live metrics over the wire
//!   (text table or run-record JSONL; `--dump` appends the flight
//!   recorder and closed session spans).
//!
//! `decode`, `simulate`, and `profile` accept `--metrics <file>` to
//! export the per-frame/per-stage telemetry as JSONL.
//!
//! All argument parsing is plain `std`; [`run`] returns the output as a
//! string so every command is unit-testable.

use std::fmt::Write as _;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;

use unfold::experiments::{
    run_baseline_configured_jobs, run_baseline_traced_jobs, run_unfold_jobs,
    run_unfold_traced_jobs, SystemRun,
};
use unfold::{decode_batch_recorded, pack_system, AmModel, LmModel, Models, System, TaskSpec};
use unfold_compress::{load_am, load_lm, save_am, save_lm, Bundle};
use unfold_decoder::{wer, DecodeConfig, MetricsSink, NullSink, OtfDecoder, TraceSink, WerReport};
use unfold_serve::{
    run_bias_compare, run_loadgen, run_saturation_sweep, saturation_ladder, BiasCompare, ClientMsg,
    LoadgenConfig, ServeConfig, Server, ServerMsg, TcpFront,
};
use unfold_sim::AcceleratorConfig;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage: unfold-cli <command> [options]

commands:
  build    --task <name> --out <dir>        build models, write .unfa/.unfl/.arpa
  pack     --task <name> --out <file>       build models, write one .unfb bundle
           [--lm-variants N]                ... with N extra domain-variant LMs
  inspect  --bundle <file> [--mmap]         verify + print a bundle's section table
  decode   --task <name> [--utterances N]   decode test utterances (WER report)
           [--am <file> --lm <file>]        ... using previously saved models
           [--bundle <file> [--mmap]]       ... using a packed bundle (zero-copy
           [--model <lm-name>]                  with --mmap), picking a bundled LM
           [--nbest K]                      ... printing K-best hypotheses
           [--lattice-beam B]               ... word-lattice pruning beam for
                                                --nbest/--confidence (default 8)
           [--confidence]                   ... per-word time spans + lattice
                                                posterior confidences
           [--jobs N]                       ... on N parallel workers (same output;
                                                0 = one per available core)
           [--metrics <file>]               ... exporting telemetry as JSONL
  simulate --task <name> [--utterances N]   accelerator performance/energy summary
           [--baseline]                     ... on the Reza et al. baseline instead
           [--jobs N]                       ... decode on N workers (0 = all cores),
                                                replay serially
           [--metrics <file>]               ... exporting telemetry as JSONL
  profile  --task <name> [--utterances N]   stage breakdown + frame latency percentiles
           [--baseline] [--metrics <file>]
  sizes    --task <name>                    dataset size table
  verify   --repro <file>                   replay an unfold-verify repro file
  serve    --task <name> [--port N]         multi-session streaming decode server;
           [--bundle <file> [--mmap]]       ... hosting a packed bundle's models
                                                (every bundled LM is selectable
                                                per session by name)
           [--port-file <file>]             ... write the bound port to a file
           [--workers N] [--capacity N]     ... decode threads (0 = all cores) and
           [--quantum N] [--deadline-ms N]      session slots / scheduler knobs
           [--idle-timeout-ms N] [--olt N]      runs until a client sends Shutdown
  loadgen  --task <name>                    closed-loop load test against `serve`
           --addr <ip:port> | --port N | --port-file <file>
           [--sessions N] [--concurrency N]
           [--chunk N] [--utterances N]     ... frames per message, distinct utts
           [--scrape-every N]               ... poll live stats every N ms mid-run
                                                (checks counters stay monotonic and
                                                the frame ledger reconciles)
           [--flight-out <file>]            ... write the flight-recorder dump
           [--bias-users N]                 ... mint N distinct per-user biasing
                                                models, register them over the
                                                wire, and open every session
                                                personalized (round-robin)
           [--saturate]                     ... after the main run, sweep client
           [--saturate-max N]                   concurrency 1,2,4..N (default 4x
                                                --concurrency) and record the
                                                sessions-vs-p99/deadline-miss curve
           [--out <file>] [--shutdown]      ... report path (default
                                                BENCH_serve.json), stop the server
  stats    --addr <ip:port> | --port N | --port-file <file>
           [--json]                         live server metrics as a text table
                                                (or the raw run-record JSONL)
           [--dump]                         ... append flight + span JSONL
           [--shutdown]                     ... stop the server after scraping

tasks: tedlium | librispeech | voxforge | eesen | tiny
exit status: 0 success, 1 runtime failure (i/o, corrupt bundle, ...), 2 usage
";

/// The CLI's top-level error: every failure a subcommand can hit,
/// with the underlying cause preserved through
/// [`std::error::Error::source`] so `main` can print the whole chain.
///
/// Process exit codes (see `main.rs`): usage problems exit 2,
/// everything else (I/O, corrupt bundles, invalid configs, serve
/// failures) exits 1.
#[derive(Debug)]
pub enum Error {
    /// No or unknown subcommand / flag.
    Usage(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// A model bundle failed to write, open, or verify.
    Bundle(unfold_compress::BundleError),
    /// A decode configuration was rejected by its validator.
    Config(unfold_decoder::ConfigError),
    /// The serve layer refused an operation.
    Serve(unfold_serve::ServeError),
}

impl Error {
    /// The process exit code this error maps to: 2 for usage errors
    /// (mirrors `EX_USAGE`-style conventions), 1 for runtime failures.
    pub fn exit_code(&self) -> i32 {
        match self {
            Error::Usage(_) => 2,
            _ => 1,
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Usage(m) => write!(f, "{m}"),
            Error::Io(e) => write!(f, "i/o: {e}"),
            Error::Bundle(e) => write!(f, "bundle: {e}"),
            Error::Config(e) => write!(f, "config: {e}"),
            Error::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Usage(_) => None,
            Error::Io(e) => Some(e),
            Error::Bundle(e) => Some(e),
            Error::Config(e) => Some(e),
            Error::Serve(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl From<unfold_compress::BundleError> for Error {
    fn from(e: unfold_compress::BundleError) -> Self {
        Error::Bundle(e)
    }
}

impl From<unfold_decoder::ConfigError> for Error {
    fn from(e: unfold_decoder::ConfigError) -> Self {
        Error::Config(e)
    }
}

impl From<unfold_serve::ServeError> for Error {
    fn from(e: unfold_serve::ServeError) -> Self {
        Error::Serve(e)
    }
}

fn task_by_name(name: &str) -> Result<TaskSpec, Error> {
    match name {
        "tedlium" => Ok(TaskSpec::tedlium_kaldi()),
        "librispeech" => Ok(TaskSpec::librispeech()),
        "voxforge" => Ok(TaskSpec::voxforge()),
        "eesen" => Ok(TaskSpec::tedlium_eesen()),
        "tiny" => Ok(TaskSpec::tiny()),
        other => Err(Error::Usage(format!("unknown task '{other}'"))),
    }
}

/// Minimal flag parser: `--key value` pairs plus boolean switches.
struct Flags<'a> {
    pairs: Vec<(&'a str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    fn parse(args: &'a [String], switches: &[&str]) -> Result<Self, Error> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i]
                .strip_prefix("--")
                .ok_or_else(|| Error::Usage(format!("expected a flag, got '{}'", args[i])))?;
            if switches.contains(&key) {
                pairs.push((key, None));
                i += 1;
            } else {
                let val = args
                    .get(i + 1)
                    .ok_or_else(|| Error::Usage(format!("--{key} needs a value")))?;
                pairs.push((key, Some(val.as_str())));
                i += 2;
            }
        }
        Ok(Flags { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| *k == key)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| *k == key)
    }

    fn require(&self, key: &str) -> Result<&str, Error> {
        self.get(key)
            .ok_or_else(|| Error::Usage(format!("missing --{key}")))
    }

    fn usize_or(&self, key: &str, default: usize) -> Result<usize, Error> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::Usage(format!("--{key} expects a number, got '{v}'"))),
        }
    }

    fn f32_or(&self, key: &str, default: f32) -> Result<f32, Error> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| Error::Usage(format!("--{key} expects a number, got '{v}'"))),
        }
    }
}

/// Executes a CLI invocation and returns its stdout text.
///
/// # Errors
/// Returns [`Error`] on bad arguments or filesystem failures.
pub fn run(args: &[String]) -> Result<String, Error> {
    let (cmd, rest) = args
        .split_first()
        .ok_or_else(|| Error::Usage("no command given".into()))?;
    match cmd.as_str() {
        "build" => cmd_build(rest),
        "pack" => cmd_pack(rest),
        "inspect" => cmd_inspect(rest),
        "decode" => cmd_decode(rest),
        "simulate" => cmd_simulate(rest),
        "profile" => cmd_profile(rest),
        "sizes" => cmd_sizes(rest),
        "verify" => cmd_verify(rest),
        "serve" => cmd_serve(rest),
        "loadgen" => cmd_loadgen(rest),
        "stats" => cmd_stats(rest),
        other => Err(Error::Usage(format!("unknown command '{other}'"))),
    }
}

/// Resolves a `--jobs`/`--workers` count: `0` means one worker per
/// available core (so scripts can say "use the machine" without
/// hard-coding a count that oversubscribes small boxes).
fn resolve_jobs(n: usize) -> usize {
    if n == 0 {
        std::thread::available_parallelism().map_or(1, |p| p.get())
    } else {
        n
    }
}

fn cmd_build(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &[])?;
    let spec = task_by_name(flags.require("task")?)?;
    let out = PathBuf::from(flags.require("out")?);
    std::fs::create_dir_all(&out)?;
    let system = System::build(&spec);
    let am_path = out.join(format!("{}.unfa", spec.name));
    let lm_path = out.join(format!("{}.unfl", spec.name));
    let arpa_path = out.join(format!("{}.arpa", spec.name));
    save_am(&system.am_comp, &am_path)?;
    save_lm(&system.lm_comp, &lm_path)?;
    std::fs::write(&arpa_path, unfold_lm::to_arpa(&system.lm_model))?;
    let mut s = String::new();
    let _ = writeln!(s, "task: {}", spec.name);
    let _ = writeln!(
        s,
        "AM:   {} ({} bytes)",
        am_path.display(),
        system.am_comp.size_bytes()
    );
    let _ = writeln!(
        s,
        "LM:   {} ({} bytes)",
        lm_path.display(),
        system.lm_comp.size_bytes()
    );
    let _ = writeln!(s, "ARPA: {}", arpa_path.display());
    Ok(s)
}

fn cmd_pack(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &[])?;
    let spec = task_by_name(flags.require("task")?)?;
    let out = PathBuf::from(flags.require("out")?);
    let variants = flags.usize_or("lm-variants", 0)?;
    let system = System::build(&spec);
    // Variant seeds are the ordinals 1..=N so the bundled LMs get
    // predictable names ("variant-1", ...) regardless of the task.
    let seeds: Vec<u64> = (1..=variants as u64).collect();
    let bytes = pack_system(&system, &seeds)?;
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(&out, &bytes)?;
    let bundle = Bundle::from_bytes(bytes)?;
    let mut s = String::new();
    let _ = writeln!(s, "task:   {}", spec.name);
    let _ = writeln!(
        s,
        "bundle: {} ({} bytes, {} sections)",
        out.display(),
        bundle.bytes().len(),
        bundle.sections().len()
    );
    let _ = writeln!(s, "LMs:    {}", bundle.lm_names().join(", "));
    Ok(s)
}

/// Renders a bundle's section table (used by `inspect` and tests).
fn bundle_report(bundle: &Bundle, path: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "bundle: {path} ({} bytes, {})",
        bundle.bytes().len(),
        if bundle.is_mapped() {
            "memory-mapped"
        } else {
            "owned"
        }
    );
    let _ = writeln!(
        s,
        "{:<8} {:<24} {:>10} {:>10}  crc64",
        "kind", "name", "offset", "bytes"
    );
    for sec in bundle.sections() {
        let _ = writeln!(
            s,
            "{:<8} {:<24} {:>10} {:>10}  {:016x}",
            sec.kind.tag(),
            sec.name,
            sec.offset,
            sec.len,
            sec.crc
        );
    }
    if let Ok(Some(task)) = bundle.meta("task") {
        let _ = writeln!(s, "meta.task: {}", String::from_utf8_lossy(task));
    }
    let _ = writeln!(s, "LMs: {}", bundle.lm_names().join(", "));
    for name in bundle.bias_names() {
        let parsed = bundle
            .bias_bytes(name)
            .map_err(|e| e.to_string())
            .and_then(|b| unfold_bias::BiasingFst::from_bytes(b).map_err(|e| e.to_string()));
        match parsed {
            Ok(bias) => {
                let _ = writeln!(
                    s,
                    "bias.{name}: {} phrases, {} states, {} bytes",
                    bias.num_phrases(),
                    bias.num_states(),
                    bias.byte_len()
                );
            }
            Err(err) => {
                let _ = writeln!(s, "bias.{name}: unreadable ({err})");
            }
        }
    }
    s
}

fn cmd_inspect(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &["mmap"])?;
    let path = flags.require("bundle")?;
    let bundle = if flags.has("mmap") {
        Bundle::open_mmap(path.as_ref())?
    } else {
        Bundle::open(path.as_ref())?
    };
    // `inspect` is the integrity check, so verify everything eagerly
    // even on a lazily-checked mmap open.
    bundle.verify_all()?;
    let mut s = bundle_report(&bundle, path);
    let _ = writeln!(s, "checksums: all sections verified");
    Ok(s)
}

/// Synthesizes the test utterances, profiled as the acoustic-scoring
/// stage: in this software stack likelihood evaluation happens up front
/// rather than interleaved with the search, so it is its own span.
fn scored_utterances(
    system: &System,
    n: usize,
    metrics: &mut MetricsSink,
) -> Vec<unfold_am::Utterance> {
    metrics
        .stages_mut()
        .scoped("acoustic_scoring", || system.test_utterances(n))
}

/// Writes a sink's telemetry as JSONL and returns a one-line receipt.
fn export_metrics(metrics: &MetricsSink, path: &str) -> Result<String, Error> {
    std::fs::write(path, metrics.to_jsonl())?;
    Ok(format!(
        "metrics: {} frame records ({} retained) -> {path}",
        metrics.frames().total_seen(),
        metrics.frames().len()
    ))
}

/// Resolves the models a `decode` invocation runs against — packed
/// bundle (owned or mmap), saved `.unfa`/`.unfl` pair, or the task's
/// generated models — always through the [`Models`] facade so every
/// origin decodes through one code path.
fn decode_models(flags: &Flags, system: &System) -> Result<Models, Error> {
    match (flags.get("bundle"), flags.get("am"), flags.get("lm")) {
        (Some(path), None, None) => Ok(if flags.has("mmap") {
            Models::open_mmap(path.as_ref())?
        } else {
            Models::open(path.as_ref())?
        }),
        (Some(_), _, _) => Err(Error::Usage(
            "--bundle replaces --am/--lm; give one or the other".into(),
        )),
        (None, Some(a), Some(l)) => Ok(Models::from_parts(
            load_am(a.as_ref())?,
            vec![(unfold::DEFAULT_LM.to_string(), load_lm(l.as_ref())?)],
        )),
        (None, None, None) => Ok(Models::from_system(system)),
        _ => Err(Error::Usage("--am and --lm must be given together".into())),
    }
}

fn cmd_decode(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &["mmap", "confidence"])?;
    let spec = task_by_name(flags.require("task")?)?;
    let n = flags.usize_or("utterances", 5)?;
    let system = System::build(&spec);
    let confidence = flags.has("confidence");
    let lattice_beam = flags.f32_or("lattice-beam", DecodeConfig::default().lattice_beam)?;
    let config = DecodeConfig::default()
        .to_builder()
        .lattice_beam(lattice_beam)
        .build()
        .map_err(|e| Error::Usage(format!("--lattice-beam: {e:?}")))?;
    let decoder = OtfDecoder::new(config);
    let mut s = String::new();
    let mut report = WerReport::default();
    let models = decode_models(&flags, &system)?;
    let lm = match flags.get("model") {
        None => models.default_lm(),
        Some(name) => models.lm(name).ok_or_else(|| {
            Error::Usage(format!(
                "no LM '{name}' in this bundle (have: {})",
                models.lm_names().join(", ")
            ))
        })?,
    };
    let am = models.am();
    let nbest = flags.usize_or("nbest", 1)?;
    let jobs = resolve_jobs(flags.usize_or("jobs", 1)?);
    let metrics_path = flags.get("metrics");
    let mut metrics = MetricsSink::new();
    let mut null = NullSink;
    let utts = match metrics_path {
        Some(_) => scored_utterances(&system, n, &mut metrics),
        None => system.test_utterances(n),
    };
    let sink: &mut dyn TraceSink = if metrics_path.is_some() {
        &mut metrics
    } else {
        &mut null
    };
    // Decode output is bit-identical for any worker count, so --jobs
    // only changes wall time; with telemetry on, the recorded traces
    // replay serially in utterance order to keep it deterministic too.
    let results: Vec<unfold_decoder::DecodeResult> = if jobs <= 1 {
        let mut scratch = unfold_decoder::DecodeScratch::new();
        utts.iter()
            .map(|utt| decoder.decode_with(am, lm, &utt.scores, &mut scratch, &mut *sink))
            .collect()
    } else {
        let (pairs, _pool) = decode_batch_recorded(&utts, jobs, |_i, utt, scratch, rec| {
            decoder.decode_with(am, lm, &utt.scores, scratch, rec)
        });
        pairs
            .into_iter()
            .map(|(res, trace)| {
                if metrics_path.is_some() {
                    trace.replay(&mut *sink);
                }
                res
            })
            .collect()
    };
    for (i, (utt, res)) in utts.iter().zip(&results).enumerate() {
        report.accumulate(wer(&utt.words, &res.words));
        let _ = writeln!(s, "utt {i}: ref {:?}", utt.words);
        let _ = writeln!(s, "       hyp {:?} (cost {:.2})", res.words, res.cost);
        if nbest > 1 {
            let list = decoder.decode_nbest(am, lm, &utt.scores, nbest, &mut *sink);
            for (rank, (words, cost)) in list.iter().enumerate().skip(1) {
                let _ = writeln!(s, "       #{} {:?} (cost {cost:.2})", rank + 1, words);
            }
        }
        if confidence && res.is_complete() {
            let (_, lattice) = decoder.decode_lattice(am, lm, &utt.scores, &mut *sink);
            let hyps = lattice.best_path_detail();
            let spans = res.word_spans();
            for (hyp, (word, first, last)) in hyps.iter().zip(&spans) {
                debug_assert_eq!(hyp.word, *word);
                let (t0, t1) = (
                    f64::from(*first) * unfold_am::acoustic::FRAME_SECONDS,
                    f64::from(*last + 1) * unfold_am::acoustic::FRAME_SECONDS,
                );
                let _ = writeln!(
                    s,
                    "       word {word} frames {first}-{last} ({t0:.2}s-{t1:.2}s) conf {:.3}",
                    hyp.confidence
                );
            }
        }
    }
    let _ = writeln!(
        s,
        "WER: {:.2}% over {} words",
        report.percent(),
        report.ref_words
    );
    if let Some(path) = metrics_path {
        let _ = writeln!(s, "{}", export_metrics(&metrics, path)?);
    }
    Ok(s)
}

/// Runs the selected accelerator configuration, teeing telemetry into
/// `metrics` when given.
fn run_simulated(
    system: &System,
    utts: &[unfold_am::Utterance],
    baseline: bool,
    metrics: Option<&mut MetricsSink>,
    jobs: usize,
) -> SystemRun {
    match (baseline, metrics) {
        (true, Some(m)) => {
            let composed = system.composed();
            run_baseline_traced_jobs(system, &composed, utts, m, jobs)
        }
        (true, None) => {
            let composed = system.composed();
            run_baseline_configured_jobs(
                system,
                &composed,
                utts,
                AcceleratorConfig::reza(),
                DecodeConfig::default(),
                jobs,
            )
        }
        (false, Some(m)) => run_unfold_traced_jobs(system, utts, m, jobs),
        (false, None) => run_unfold_jobs(system, utts, jobs),
    }
}

fn cmd_simulate(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &["baseline"])?;
    let spec = task_by_name(flags.require("task")?)?;
    let n = flags.usize_or("utterances", 5)?;
    let jobs = resolve_jobs(flags.usize_or("jobs", 1)?);
    let system = System::build(&spec);
    let metrics_path = flags.get("metrics");
    let mut metrics = MetricsSink::new();
    let utts = match metrics_path {
        Some(_) => scored_utterances(&system, n, &mut metrics),
        None => system.test_utterances(n),
    };
    let run = run_simulated(
        &system,
        &utts,
        flags.has("baseline"),
        metrics_path.map(|_| &mut metrics),
        jobs,
    );
    let mut s = String::new();
    let sim = &run.sim;
    let _ = writeln!(s, "configuration: {}", sim.config_name);
    let _ = writeln!(s, "task:          {}", spec.name);
    let _ = writeln!(
        s,
        "audio:         {:.2} s in {} utterances",
        run.audio_seconds, n
    );
    let _ = writeln!(
        s,
        "decode time:   {:.3} ms ({:.0}x real time)",
        sim.seconds * 1e3,
        sim.times_real_time()
    );
    let _ = writeln!(
        s,
        "energy:        {:.4} mJ ({:.4} mJ per audio second)",
        sim.total_energy_mj(),
        sim.energy_mj_per_audio_second()
    );
    let _ = writeln!(s, "avg power:     {:.1} mW", sim.avg_power_mw());
    let _ = writeln!(s, "bandwidth:     {:.1} MB/s", sim.bandwidth_mb_per_s());
    let _ = writeln!(
        s,
        "cache misses:  state {:.1}%  am-arc {:.1}%  lm-arc {:.1}%  token {:.1}%",
        sim.state_cache.miss_ratio() * 100.0,
        sim.am_arc_cache.miss_ratio() * 100.0,
        sim.lm_arc_cache.miss_ratio() * 100.0,
        sim.token_cache.miss_ratio() * 100.0
    );
    if sim.olt.probes > 0 {
        let _ = writeln!(s, "OLT hit ratio: {:.1}%", sim.olt.hit_ratio() * 100.0);
    }
    if run.pool.workers > 1 {
        let _ = writeln!(
            s,
            "decode pool:   {} workers, occupancy {:.2}",
            run.pool.workers,
            run.pool.occupancy()
        );
    }
    let _ = writeln!(s, "WER:           {:.2}%", run.wer.percent());
    let _ = writeln!(s, "area estimate: {:.1} mm2", sim.area_mm2);
    if let Some(path) = metrics_path {
        let _ = writeln!(s, "{}", export_metrics(&metrics, path)?);
    }
    Ok(s)
}

fn cmd_profile(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &["baseline"])?;
    let spec = task_by_name(flags.require("task")?)?;
    let n = flags.usize_or("utterances", 5)?;
    let system = System::build(&spec);
    let mut metrics = MetricsSink::new();
    let utts = scored_utterances(&system, n, &mut metrics);
    let run = run_simulated(&system, &utts, flags.has("baseline"), Some(&mut metrics), 1);

    let mut s = String::new();
    let _ = writeln!(
        s,
        "profile: {} on {} ({} utterances, {} frames, {:.2} s audio)",
        run.sim.config_name, spec.name, n, run.stats.frames, run.audio_seconds
    );
    let _ = writeln!(s);
    s.push_str(&metrics.summary_markdown());
    let lat = metrics.frame_latency().summary();
    let us = |ns: f64| ns / 1e3;
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "frame latency (host): p50 {:.1} us  p95 {:.1} us  p99 {:.1} us  (mean {:.1} us over {} frames)",
        us(lat.p50),
        us(lat.p95),
        us(lat.p99),
        us(lat.mean),
        lat.count
    );
    if let Some(path) = flags.get("metrics") {
        let _ = writeln!(s, "{}", export_metrics(&metrics, path)?);
    }
    Ok(s)
}

fn cmd_sizes(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &[])?;
    let spec = task_by_name(flags.require("task")?)?;
    let system = System::build(&spec);
    let t = system.sizes();
    let mut s = String::new();
    let _ = writeln!(s, "task: {}", spec.name);
    let _ = writeln!(s, "AM WFST:                 {:>10.3} MiB", t.am_mib);
    let _ = writeln!(s, "LM WFST:                 {:>10.3} MiB", t.lm_mib);
    let _ = writeln!(s, "composed WFST:           {:>10.3} MiB", t.composed_mib);
    let _ = writeln!(
        s,
        "composed + compression:  {:>10.3} MiB",
        t.composed_comp_mib
    );
    let _ = writeln!(
        s,
        "on-the-fly (AM+LM):      {:>10.3} MiB",
        t.on_the_fly_mib()
    );
    let _ = writeln!(s, "UNFOLD (compressed):     {:>10.3} MiB", t.unfold_mib());
    let _ = writeln!(s, "acoustic backend:        {:>10.3} MiB", t.backend_mib);
    let _ = writeln!(
        s,
        "reduction vs composed:   {:>9.1}x",
        t.reduction_vs_composed()
    );
    let _ = writeln!(
        s,
        "reduction vs comp+comp:  {:>9.1}x",
        t.reduction_vs_composed_comp()
    );
    Ok(s)
}

fn cmd_verify(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &[])?;
    let path = flags.require("repro")?;
    let text = std::fs::read_to_string(path)?;
    let repro = unfold_verify::ReproCase::from_text(&text)
        .map_err(|e| Error::Usage(format!("{path}: {e}")))?;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "repro: {path} (mutation {}, expected check {})",
        repro.mutation.name(),
        repro
            .check
            .map_or_else(|| "unspecified".to_string(), |c| c.to_string())
    );
    match unfold_verify::run_repro(&repro) {
        Some(d) => {
            let _ = writeln!(s, "DIVERGED ({}): {}", d.check, d.detail);
            if let Some(expected) = repro.check {
                if expected != d.check {
                    let _ = writeln!(
                        s,
                        "note: repro was recorded against check '{expected}', now failing '{}'",
                        d.check
                    );
                }
            }
        }
        None => {
            let _ = writeln!(
                s,
                "PASS: all checks agree (the recorded divergence is gone)"
            );
        }
    }
    Ok(s)
}

fn cmd_serve(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &["mmap"])?;
    let spec = task_by_name(flags.require("task")?)?;
    let port = flags.usize_or("port", 0)?;
    let port = u16::try_from(port)
        .map_err(|_| Error::Usage(format!("--port {port} is not a TCP port")))?;
    let config = ServeConfig {
        workers: resolve_jobs(flags.usize_or("workers", 2)?),
        capacity: flags.usize_or("capacity", 32)?,
        quantum_frames: flags.usize_or("quantum", 16)?,
        deadline_ms: flags.usize_or("deadline-ms", 500)? as u64,
        idle_timeout_ms: flags.usize_or("idle-timeout-ms", 10_000)? as u64,
        olt_entries: flags.usize_or("olt", 1_024)?,
        ..Default::default()
    };
    // All origins funnel through the Models facade, so the server hosts
    // AmModel/LmModel regardless of where the bytes came from — and a
    // bundle's every LM is selectable per session by name.
    let models = match flags.get("bundle") {
        Some(path) if flags.has("mmap") => Models::open_mmap(path.as_ref())?,
        Some(path) => Models::open(path.as_ref())?,
        None => Models::from_system(&System::build(&spec)),
    };
    let am: Arc<AmModel> = Arc::new(models.am().clone());
    let lms: Vec<(String, Arc<LmModel>)> = models
        .lm_names()
        .iter()
        .map(|&name| {
            let lm = models.lm(name).expect("listed name resolves");
            (name.to_string(), Arc::new(lm.clone()))
        })
        .collect();
    let lm_names: Vec<String> = lms.iter().map(|(n, _)| n.clone()).collect();
    let server = Server::start_multi(config, am, lms);
    let handle = server.handle();
    let listener = TcpListener::bind(("127.0.0.1", port))?;
    let front = TcpFront::start(listener, server.handle())?;
    let addr = front.local_addr();
    if let Some(path) = flags.get("port-file") {
        // The ephemeral port (with --port 0) is only knowable here, so
        // scripts read it back from this file.
        std::fs::write(path, format!("{}\n", addr.port()))?;
    }
    // Blocks until a client sends Shutdown (the accept loop watches the
    // server's shutdown flag).
    front.join();
    server.shutdown();
    let mut s = String::new();
    let _ = writeln!(
        s,
        "serve: {} on {addr} (LMs: {}) — shut down",
        spec.name,
        lm_names.join(", ")
    );
    s.push_str(&handle.obs_markdown());
    Ok(s)
}

/// Resolves the loadgen target address from `--addr`, `--port`, or
/// `--port-file` (in that precedence).
fn loadgen_addr(flags: &Flags) -> Result<SocketAddr, Error> {
    if let Some(a) = flags.get("addr") {
        return a
            .parse()
            .map_err(|_| Error::Usage(format!("--addr expects ip:port, got '{a}'")));
    }
    let port = if let Some(path) = flags.get("port-file") {
        let text = std::fs::read_to_string(path)?;
        text.trim()
            .parse::<u16>()
            .map_err(|_| Error::Usage(format!("{path}: expected a port, got '{}'", text.trim())))?
    } else {
        let port = flags.usize_or("port", 0)?;
        if port == 0 {
            return Err(Error::Usage(
                "loadgen needs --addr, --port, or --port-file".into(),
            ));
        }
        u16::try_from(port).map_err(|_| Error::Usage(format!("--port {port} is not a TCP port")))?
    };
    Ok(SocketAddr::from(([127, 0, 0, 1], port)))
}

fn cmd_loadgen(args: &[String]) -> Result<String, Error> {
    let flags = Flags::parse(args, &["shutdown", "saturate"])?;
    let spec = task_by_name(flags.require("task")?)?;
    let addr = loadgen_addr(&flags)?;
    let saturate = flags.has("saturate");
    let cfg = LoadgenConfig {
        sessions: flags.usize_or("sessions", 16)?,
        concurrency: flags.usize_or("concurrency", 4)?,
        chunk_frames: flags.usize_or("chunk", 10)?,
        scrape_every_ms: flags.usize_or("scrape-every", 0)? as u64,
        // With a sweep following, the shutdown belongs to its last rung.
        shutdown_after: flags.has("shutdown") && !saturate,
        // Distinct per-user biasing models, registered over the wire and
        // assigned to sessions round-robin; phrases are minted within
        // the task's vocabulary so they can actually fire.
        bias_users: flags.usize_or("bias-users", 0)?,
        bias_vocab: u32::try_from(spec.vocab_size.saturating_sub(1).max(1)).unwrap_or(u32::MAX),
    };
    let n = flags.usize_or("utterances", 4)?.max(1);
    let out = flags.get("out").unwrap_or("BENCH_serve.json");
    // The client synthesizes the same task preset the server loaded, so
    // score-row width matches the server's acoustic model.
    let system = System::build(&spec);
    let utts: Vec<Vec<Vec<f32>>> = system
        .test_utterances(n)
        .iter()
        .map(|u| {
            (0..u.scores.num_frames())
                .map(|t| u.scores.frame(t).to_vec())
                .collect()
        })
        .collect();
    // With biased users requested, run an unbiased control pass first at
    // the same load, so the report carries the marginal cost of
    // personalization (latency and RSS) rather than absolute numbers.
    let (report, bias): (_, Option<BiasCompare>) = if cfg.bias_users > 0 {
        let (report, compare) = run_bias_compare(addr, &utts, &cfg)?;
        (report, Some(compare))
    } else {
        (run_loadgen(addr, &utts, &cfg)?, None)
    };
    let sweep = if saturate {
        let max = flags.usize_or("saturate-max", cfg.concurrency.max(1) * 4)?;
        let base = LoadgenConfig {
            shutdown_after: flags.has("shutdown"),
            ..cfg.clone()
        };
        run_saturation_sweep(addr, &utts, &base, &saturation_ladder(max))?
    } else {
        Vec::new()
    };
    std::fs::write(out, report.to_json_document(&sweep, bias.as_ref()))?;
    let mut s = String::new();
    let _ = writeln!(s, "loadgen: {} against {addr}", spec.name);
    let _ = writeln!(
        s,
        "sessions: {} requested, {} completed, {} rejected, {} errors ({:.2}/s)",
        report.sessions_requested,
        report.sessions_completed,
        report.sessions_rejected,
        report.errors,
        report.sessions_per_sec
    );
    let _ = writeln!(
        s,
        "first partial: p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  ({} sessions)",
        report.first_partial_ms.p50,
        report.first_partial_ms.p95,
        report.first_partial_ms.p99,
        report.first_partial_ms.count
    );
    let _ = writeln!(
        s,
        "final:         p50 {:.2} ms  p95 {:.2} ms  p99 {:.2} ms  ({} sessions)",
        report.final_ms.p50, report.final_ms.p95, report.final_ms.p99, report.final_ms.count
    );
    if let Some(b) = &bias {
        let _ = writeln!(
            s,
            "bias: {} users over {} sessions  p99 final {:.2} ms (unbiased {:.2} ms)  \
             miss delta {:.0}  marginal RSS {:.1} KiB/user",
            b.users,
            b.sessions,
            b.biased_p99_final_ms,
            b.unbiased_p99_final_ms,
            b.deadline_miss_delta,
            b.marginal_rss_kb_per_user
        );
    }
    if cfg.scrape_every_ms > 0 {
        let _ = writeln!(
            s,
            "scrapes: {} ({} failures, reconciled: {})",
            report.scrapes, report.scrape_failures, report.reconciled
        );
    }
    for name in [
        "serve.deadline_misses",
        "serve.evictions_idle",
        "serve.rejects_capacity",
        "serve.rejects_overload",
    ] {
        if let Some(v) = report.server_total(name) {
            let _ = writeln!(s, "{name}: {v:.0}");
        }
    }
    for p in &sweep {
        let _ = writeln!(
            s,
            "saturation c={:>3}: {}/{} sessions ({:.2}/s)  p99 final {:.2} ms  miss delta {:.0}",
            p.concurrency,
            p.completed,
            p.sessions,
            p.sessions_per_sec,
            p.p99_final_ms,
            p.deadline_miss_delta
        );
    }
    if let Some(path) = flags.get("flight-out") {
        std::fs::write(path, &report.flight_jsonl)?;
        let _ = writeln!(s, "flight: {path}");
    }
    let _ = writeln!(s, "report: {out}");
    Ok(s)
}

/// Scrapes a running server's live metrics over the wire. `--json`
/// prints the raw run-record JSONL instead of the text table; `--dump`
/// appends the flight-recorder and session-span JSONL; `--shutdown`
/// asks the server to stop after the scrape.
fn cmd_stats(args: &[String]) -> Result<String, Error> {
    use unfold_serve::wire::{read_server, write_client};
    let flags = Flags::parse(args, &["json", "dump", "shutdown"])?;
    let addr = loadgen_addr(&flags)?;
    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let mut rd = std::io::BufReader::new(stream.try_clone()?);
    let mut wr = std::io::BufWriter::new(stream);
    let unexpected = |what: &str| {
        Error::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            what.to_string(),
        ))
    };
    write_client(&mut wr, &ClientMsg::Stats)?;
    let Some(ServerMsg::Stats { jsonl }) = read_server(&mut rd)? else {
        return Err(unexpected("unexpected reply to Stats"));
    };
    let mut s = String::new();
    if flags.has("json") {
        s.push_str(jsonl.trim());
        s.push('\n');
    } else {
        let Ok(unfold_obs::ObsRecord::Run(pairs)) = unfold_obs::ObsRecord::parse_line(jsonl.trim())
        else {
            return Err(unexpected("stats reply is not a run record"));
        };
        let _ = writeln!(s, "stats: {addr}");
        s.push_str(&stats_table(&pairs));
    }
    if flags.has("dump") {
        write_client(&mut wr, &ClientMsg::Dump)?;
        let Some(ServerMsg::Dump { flight, spans }) = read_server(&mut rd)? else {
            return Err(unexpected("unexpected reply to Dump"));
        };
        s.push_str(&flight);
        s.push_str(&spans);
    }
    if flags.has("shutdown") {
        write_client(&mut wr, &ClientMsg::Shutdown)?;
    }
    Ok(s)
}

/// Renders a scraped run record as the `stats` text table. Absent
/// metrics (e.g. `serve.olt_hit_rate` before any probe) arrive as NaN;
/// they render as `-` rather than a float, and the numeric column is
/// right-aligned so magnitudes line up.
fn stats_table(pairs: &[(String, f64)]) -> String {
    use std::fmt::Write as _;
    let rendered: Vec<(&str, String)> = pairs
        .iter()
        .map(|(n, v)| {
            let cell = if v.is_nan() {
                "-".to_string()
            } else {
                v.to_string()
            };
            (n.as_str(), cell)
        })
        .collect();
    let width = rendered.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    let vwidth = rendered.iter().map(|(_, v)| v.len()).max().unwrap_or(0);
    let mut s = String::new();
    for (name, v) in &rendered {
        let _ = writeln!(s, "  {name:<width$}  {v:>vwidth$}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn stats_table_renders_nan_as_dash_and_right_aligns() {
        let pairs = vec![
            ("serve.backlog_frames".to_string(), 1234.0),
            ("serve.olt_hit_rate".to_string(), f64::NAN),
            ("serve.vm_rss_kb".to_string(), 56.5),
        ];
        let table = stats_table(&pairs);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[1].ends_with(" -"),
            "NaN must render as a dash: {:?}",
            lines[1]
        );
        assert!(!table.contains("NaN"), "no bare NaN in the table");
        // Right alignment: every value cell ends at the same column.
        let widths: Vec<usize> = lines.iter().map(|l| l.len()).collect();
        assert!(
            widths.windows(2).all(|w| w[0] == w[1]),
            "value column must be right-aligned: {widths:?}"
        );
    }

    #[test]
    fn no_command_is_usage_error() {
        assert!(matches!(run(&[]), Err(Error::Usage(_))));
        assert!(matches!(run(&sv(&["frobnicate"])), Err(Error::Usage(_))));
    }

    #[test]
    fn missing_flags_are_reported() {
        let err = run(&sv(&["sizes"])).unwrap_err();
        assert!(err.to_string().contains("--task"));
        let err = run(&sv(&["decode", "--task", "tiny", "--am", "x"])).unwrap_err();
        assert!(err.to_string().contains("together"));
    }

    #[test]
    fn unknown_task_is_reported() {
        let err = run(&sv(&["sizes", "--task", "klingon"])).unwrap_err();
        assert!(err.to_string().contains("klingon"));
    }

    #[test]
    fn sizes_prints_table() {
        let out = run(&sv(&["sizes", "--task", "tiny"])).unwrap();
        assert!(out.contains("reduction vs composed"));
        assert!(out.contains("UNFOLD (compressed)"));
    }

    #[test]
    fn decode_reports_wer() {
        let out = run(&sv(&["decode", "--task", "tiny", "--utterances", "2"])).unwrap();
        assert!(out.contains("WER:"));
        assert!(out.contains("utt 1:"));
    }

    #[test]
    fn decode_nbest_lists_alternatives() {
        let out = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "1",
            "--nbest",
            "3",
        ]))
        .unwrap();
        assert!(out.contains("hyp"));
        // Alternatives may or may not exist; the flag must parse.
        assert!(out.contains("WER:"));
    }

    #[test]
    fn decode_confidence_prints_word_spans() {
        let out = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "1",
            "--confidence",
        ]))
        .unwrap();
        assert!(out.contains("conf "), "missing confidence lines in:\n{out}");
        assert!(out.contains("frames "), "missing frame spans in:\n{out}");
        assert!(out.contains("WER:"));
    }

    #[test]
    fn decode_rejects_bad_lattice_beam() {
        let err = run(&sv(&["decode", "--task", "tiny", "--lattice-beam", "-3"])).unwrap_err();
        assert!(err.to_string().contains("lattice-beam"));
    }

    #[test]
    fn simulate_both_configurations() {
        let unfold_out = run(&sv(&["simulate", "--task", "tiny", "--utterances", "2"])).unwrap();
        assert!(unfold_out.contains("configuration: UNFOLD"));
        assert!(unfold_out.contains("OLT hit ratio"));
        let reza_out = run(&sv(&[
            "simulate",
            "--task",
            "tiny",
            "--utterances",
            "2",
            "--baseline",
        ]))
        .unwrap();
        assert!(reza_out.contains("configuration: Reza et al."));
    }

    #[test]
    fn profile_prints_stage_breakdown_and_percentiles() {
        let out = run(&sv(&["profile", "--task", "tiny", "--utterances", "2"])).unwrap();
        assert!(out.contains("## Stage breakdown"));
        for stage in [
            "acoustic_scoring",
            "arc_expansion",
            "lm_lookup",
            "pruning",
            "lattice",
        ] {
            assert!(out.contains(stage), "missing stage {stage} in:\n{out}");
        }
        assert!(out.contains("frame latency (host): p50"));
        assert!(out.contains("p95"));
        assert!(out.contains("p99"));
    }

    #[test]
    fn decode_metrics_writes_parseable_jsonl() {
        let path =
            std::env::temp_dir().join(format!("unfold-metrics-{}.jsonl", std::process::id()));
        let out = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "1",
            "--metrics",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics:"));
        let text = std::fs::read_to_string(&path).unwrap();
        let mut frames = 0usize;
        for line in text.lines() {
            let rec = unfold_obs::ObsRecord::parse_line(line).expect("valid JSONL");
            if matches!(rec, unfold_obs::ObsRecord::Frame(_)) {
                frames += 1;
            }
        }
        assert!(frames >= 1, "at least one frame record per decoded frame");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn simulate_metrics_includes_cache_rates() {
        let path =
            std::env::temp_dir().join(format!("unfold-sim-metrics-{}.jsonl", std::process::id()));
        let out = run(&sv(&[
            "simulate",
            "--task",
            "tiny",
            "--utterances",
            "1",
            "--metrics",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("metrics:"));
        let text = std::fs::read_to_string(&path).unwrap();
        let has_cache = text.lines().any(|l| {
            matches!(
                unfold_obs::ObsRecord::parse_line(l),
                Ok(unfold_obs::ObsRecord::Frame(f)) if f.cache.is_some()
            )
        });
        assert!(has_cache, "simulated frames must carry cache hit rates");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn build_then_decode_from_files() {
        let dir = std::env::temp_dir().join(format!("unfold-cli-{}", std::process::id()));
        let out = run(&sv(&[
            "build",
            "--task",
            "tiny",
            "--out",
            dir.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains(".unfa") || out.contains("AM:"));
        let am = dir.join("tiny.unfa");
        let lm = dir.join("tiny.unfl");
        assert!(am.exists() && lm.exists());
        assert!(dir.join("tiny.arpa").exists());
        let decoded = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "1",
            "--am",
            am.to_str().unwrap(),
            "--lm",
            lm.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(decoded.contains("WER:"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pack_inspect_and_bundle_decode_roundtrip() {
        let dir = std::env::temp_dir().join(format!("unfold-pack-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bundle = dir.join("tiny.unfb");
        let packed = run(&sv(&[
            "pack",
            "--task",
            "tiny",
            "--out",
            bundle.to_str().unwrap(),
            "--lm-variants",
            "1",
        ]))
        .unwrap();
        assert!(packed.contains("sections"), "in:\n{packed}");
        assert!(bundle.exists());

        let inspected = run(&sv(&["inspect", "--bundle", bundle.to_str().unwrap()])).unwrap();
        assert!(inspected.contains("meta.task: tiny"), "in:\n{inspected}");
        assert!(inspected.contains("all sections verified"));
        assert!(inspected.contains("default"), "in:\n{inspected}");
        let mapped = run(&sv(&[
            "inspect",
            "--bundle",
            bundle.to_str().unwrap(),
            "--mmap",
        ]))
        .unwrap();
        assert!(mapped.contains("memory-mapped"), "in:\n{mapped}");

        // Generated, owned-bundle, and mmap-bundle decodes all print
        // identical transcripts: one facade, one decode path.
        let generated = run(&sv(&["decode", "--task", "tiny", "--utterances", "2"])).unwrap();
        let owned = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "2",
            "--bundle",
            bundle.to_str().unwrap(),
        ]))
        .unwrap();
        let mmapped = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "2",
            "--bundle",
            bundle.to_str().unwrap(),
            "--mmap",
        ]))
        .unwrap();
        assert_eq!(
            generated, owned,
            "bundle must decode like the source models"
        );
        assert_eq!(owned, mmapped, "mmap must be bit-identical to owned");

        // The packed variant LM is selectable and decodes.
        let variant = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "1",
            "--bundle",
            bundle.to_str().unwrap(),
            "--mmap",
            "--model",
            "variant-1",
        ]))
        .unwrap();
        assert!(variant.contains("WER:"), "in:\n{variant}");

        // Unknown LM names list what the bundle has.
        let err = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--bundle",
            bundle.to_str().unwrap(),
            "--model",
            "nope",
        ]))
        .unwrap_err();
        assert!(err.to_string().contains("variant-1"), "got: {err}");
        // Conflicting model sources are refused.
        let err = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--bundle",
            bundle.to_str().unwrap(),
            "--am",
            "x.unfa",
            "--lm",
            "x.unfl",
        ]))
        .unwrap_err();
        assert!(matches!(err, Error::Usage(_)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_bundle_is_a_bundle_error_with_source_and_exit_code_one() {
        let dir = std::env::temp_dir().join(format!("unfold-corrupt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let bundle = dir.join("tiny.unfb");
        run(&sv(&[
            "pack",
            "--task",
            "tiny",
            "--out",
            bundle.to_str().unwrap(),
        ]))
        .unwrap();
        // Flip one payload byte: inspect must fail the checksum, as a
        // typed error carrying the cause, never a panic.
        let mut bytes = std::fs::read(&bundle).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(&bundle, &bytes).unwrap();
        let err = run(&sv(&["inspect", "--bundle", bundle.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, Error::Bundle(_)), "got: {err:?}");
        assert_eq!(err.exit_code(), 1);
        assert!(
            std::error::Error::source(&err).is_some(),
            "bundle errors keep their cause chain"
        );
        assert_eq!(Error::Usage("x".into()).exit_code(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_jobs_output_is_identical_to_serial() {
        let serial = run(&sv(&["decode", "--task", "tiny", "--utterances", "3"])).unwrap();
        let parallel = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "3",
            "--jobs",
            "4",
        ]))
        .unwrap();
        assert_eq!(serial, parallel, "--jobs must not change decode output");
    }

    #[test]
    fn simulate_jobs_reports_pool_and_matches_serial_sim() {
        let serial = run(&sv(&["simulate", "--task", "tiny", "--utterances", "2"])).unwrap();
        let parallel = run(&sv(&[
            "simulate",
            "--task",
            "tiny",
            "--utterances",
            "2",
            "--jobs",
            "2",
        ]))
        .unwrap();
        assert!(parallel.contains("decode pool:   2 workers"));
        // Every simulator-derived line must be unchanged by --jobs.
        for prefix in ["decode time:", "energy:", "WER:", "cache misses:"] {
            let find = |out: &str| {
                out.lines()
                    .find(|l| l.starts_with(prefix))
                    .map(str::to_string)
            };
            assert_eq!(find(&serial), find(&parallel), "line '{prefix}' diverged");
        }
    }

    #[test]
    fn verify_replays_passing_and_diverging_repros() {
        use unfold_verify::{CaseSpec, Mutation, ReproCase};
        let dir = std::env::temp_dir().join(format!("unfold-verify-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();

        // A clean spec under no mutation replays as PASS.
        let clean = dir.join("clean.txt");
        let repro = ReproCase {
            spec: CaseSpec::derive(0xC1EA4, 0),
            check: None,
            mutation: Mutation::None,
        };
        std::fs::write(&clean, repro.to_text()).unwrap();
        let out = run(&sv(&["verify", "--repro", clean.to_str().unwrap()])).unwrap();
        assert!(out.contains("PASS"), "expected PASS in:\n{out}");

        // The same specs under the free-backoff mutation must surface a
        // divergence for at least one case.
        let diverged = (0..12).any(|i| {
            let path = dir.join(format!("mut-{i}.txt"));
            let repro = ReproCase {
                spec: CaseSpec::derive(0xB00, i),
                check: None,
                mutation: Mutation::FreeBackoff,
            };
            std::fs::write(&path, repro.to_text()).unwrap();
            let out = run(&sv(&["verify", "--repro", path.to_str().unwrap()])).unwrap();
            out.contains("DIVERGED")
        });
        assert!(diverged, "injected bug must replay as DIVERGED");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_rejects_malformed_repros() {
        let path =
            std::env::temp_dir().join(format!("unfold-verify-bad-{}.txt", std::process::id()));
        std::fs::write(&path, "version = 1\nbogus_key = 3\n").unwrap();
        let err = run(&sv(&["verify", "--repro", path.to_str().unwrap()])).unwrap_err();
        assert!(matches!(err, Error::Usage(_)));
        assert!(err.to_string().contains("bogus_key"));
        std::fs::remove_file(&path).ok();

        let err = run(&sv(&["verify"])).unwrap_err();
        assert!(err.to_string().contains("--repro"));
    }

    #[test]
    fn bad_number_is_usage_error() {
        let err = run(&sv(&["decode", "--task", "tiny", "--utterances", "lots"])).unwrap_err();
        assert!(err.to_string().contains("number"));
    }

    #[test]
    fn jobs_zero_resolves_to_available_cores_with_identical_output() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
        let serial = run(&sv(&["decode", "--task", "tiny", "--utterances", "2"])).unwrap();
        let auto = run(&sv(&[
            "decode",
            "--task",
            "tiny",
            "--utterances",
            "2",
            "--jobs",
            "0",
        ]))
        .unwrap();
        assert_eq!(serial, auto, "--jobs 0 must not change decode output");
    }

    #[test]
    fn loadgen_without_a_target_is_a_usage_error() {
        let err = run(&sv(&["loadgen", "--task", "tiny"])).unwrap_err();
        assert!(err.to_string().contains("--addr"));
        let err = run(&sv(&["loadgen", "--task", "tiny", "--addr", "nonsense"])).unwrap_err();
        assert!(err.to_string().contains("ip:port"));
    }

    #[test]
    fn serve_and_loadgen_roundtrip_writes_bench_report() {
        let dir = std::env::temp_dir().join(format!("unfold-serve-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let port_file = dir.join("port");
        let out = dir.join("BENCH_serve.json");

        let pf = port_file.to_str().unwrap().to_string();
        let server = std::thread::spawn(move || {
            run(&sv(&[
                "serve",
                "--task",
                "tiny",
                "--port",
                "0",
                "--port-file",
                &pf,
                "--workers",
                "2",
            ]))
        });
        // Wait (bounded) for serve to publish its ephemeral port.
        let mut waited = 0u32;
        while !port_file.exists() {
            assert!(!server.is_finished(), "serve exited before binding");
            assert!(waited < 1_000, "serve never wrote its port file");
            waited += 1;
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // Live scrape before any traffic: counters exist and are zero.
        let stats = run(&sv(&["stats", "--port-file", port_file.to_str().unwrap()])).unwrap();
        assert!(stats.contains("serve.sessions_opened"), "in:\n{stats}");
        assert!(stats.contains("serve.frames_accepted"), "in:\n{stats}");
        // The occupancy gauge is in the table from the start, and NaN
        // gauges (`serve.olt_hit_rate` before any probe) render as a
        // dash.
        assert!(
            stats.contains("serve.stage_search_occupancy"),
            "in:\n{stats}"
        );
        assert!(
            !stats.contains("NaN"),
            "NaN leaked into the table:\n{stats}"
        );
        let stats_json = run(&sv(&[
            "stats",
            "--port-file",
            port_file.to_str().unwrap(),
            "--json",
            "--dump",
        ]))
        .unwrap();
        assert!(
            matches!(
                unfold_obs::ObsRecord::parse_line(stats_json.lines().next().unwrap()),
                Ok(unfold_obs::ObsRecord::Run(_))
            ),
            "--json must emit a parseable run record:\n{stats_json}"
        );

        let flight_out = dir.join("flight.jsonl");
        let report = run(&sv(&[
            "loadgen",
            "--task",
            "tiny",
            "--port-file",
            port_file.to_str().unwrap(),
            "--sessions",
            "4",
            "--concurrency",
            "2",
            "--utterances",
            "2",
            "--scrape-every",
            "5",
            "--flight-out",
            flight_out.to_str().unwrap(),
            "--saturate",
            "--saturate-max",
            "2",
            "--out",
            out.to_str().unwrap(),
            "--shutdown",
        ]))
        .unwrap();
        assert!(report.contains("4 completed"), "in:\n{report}");
        assert!(report.contains("first partial: p50"));
        assert!(report.contains("serve.deadline_misses"));
        assert!(report.contains("reconciled: true"), "in:\n{report}");
        // --saturate walks concurrency 1 then 2 after the main run.
        assert!(report.contains("saturation c=  1"), "in:\n{report}");
        assert!(report.contains("saturation c=  2"), "in:\n{report}");

        let json = std::fs::read_to_string(&out).unwrap();
        for key in [
            "\"sessions_per_sec\"",
            "\"first_partial_ms\"",
            "\"p99\"",
            "\"scrape_failures\": 0",
            "\"reconciled\": true",
            "\"server_session_spans\": 4",
            "\"serve.deadline_misses\"",
            "\"saturation\": [",
            "\"deadline_miss_delta\"",
            "\"serve.frames_scored\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // The flight dump is valid JSONL of flight records.
        let flight = std::fs::read_to_string(&flight_out).unwrap();
        assert!(
            flight.lines().all(|l| matches!(
                unfold_obs::ObsRecord::parse_line(l),
                Ok(unfold_obs::ObsRecord::Flight(_))
            )),
            "flight dump must parse:\n{flight}"
        );
        assert!(flight.contains("\"event\":\"final\""), "in:\n{flight}");

        // --shutdown stopped the server; its thread returns the obs
        // summary.
        let served = server.join().unwrap().unwrap();
        assert!(served.contains("shut down"), "in:\n{served}");
        assert!(served.contains("serve.finals"), "in:\n{served}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
