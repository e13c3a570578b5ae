//! Closed-loop load generator for the TCP front end.
//!
//! `concurrency` client threads each stream their share of `sessions`
//! sequentially: open, send frame chunks (waiting for each `Partial`
//! before sending the next chunk — closed loop, so offered load adapts
//! to the server), finish, wait for `Final`. Two latencies are
//! measured per session:
//!
//! * **first partial** — open until the first *non-empty* stable
//!   partial, the "time to first word" a captioning UI cares about;
//! * **final** — `Finish` sent until `Final` received, the tail
//!   flush cost.
//!
//! Latencies are captured in *microseconds* (each client thread bumps
//! its own lock-free [`LogHistogram`], merged exactly at the end) and
//! reported as fractional milliseconds — sub-millisecond finals no
//! longer truncate to 0.
//!
//! With [`LoadgenConfig::scrape_every_ms`] set, a scraper thread polls
//! the live `Stats` endpoint on its own connection while traffic runs
//! (reconnecting once when the server has closed it for idleness),
//! asserting that every counter is monotonic scrape-over-scrape and
//! that the frame ledger reconciles (`accepted = decoded + backlog +
//! inflight + dropped`) inside each consistent snapshot.
//!
//! The report carries p50/p95/p99 summaries of both latencies plus the
//! server's own metrics record (admissions, evictions, deadline
//! misses), and serializes to one JSON document
//! ([`LoadgenReport::to_json`]).

use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use unfold_obs::{LogHistogram, ObsRecord, Summary};

use crate::wire::{read_server, write_client, ClientMsg, ServerMsg};
use crate::FrameInput;

/// Load-generator knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadgenConfig {
    /// Total sessions to run.
    pub sessions: usize,
    /// Concurrent client connections.
    pub concurrency: usize,
    /// Frames per `FramesV2` message (each a precomputed score row).
    pub chunk_frames: usize,
    /// Poll the live `Stats` endpoint every this many milliseconds from
    /// a dedicated scraper connection while traffic runs (0 = off).
    pub scrape_every_ms: u64,
    /// Send `Shutdown` to the server after the run (for smoke tests
    /// that own the server's lifetime).
    pub shutdown_after: bool,
    /// Register this many *distinct* per-user biasing models over the
    /// wire before traffic starts, then open each session with one of
    /// them round-robin (0 = every session unbiased). Models the
    /// "contacts list per caller" personalization workload.
    pub bias_users: usize,
    /// Vocabulary bound for the minted biasing phrases (word ids are
    /// drawn from `1..=bias_vocab`; keep it within the served LM's
    /// vocabulary so the phrases can actually fire).
    pub bias_vocab: u32,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            sessions: 16,
            concurrency: 4,
            chunk_frames: 10,
            scrape_every_ms: 0,
            shutdown_after: false,
            bias_users: 0,
            bias_vocab: 50,
        }
    }
}

/// The registry name loadgen gives biasing user `u`.
fn bias_user_name(u: usize) -> String {
    format!("user-{u}")
}

#[derive(Debug, Default, Clone, Copy)]
struct SessionOutcome {
    first_partial_us: Option<u64>,
    final_us: Option<u64>,
    completed: bool,
    rejected: bool,
    errored: bool,
}

/// A latency summary in fractional milliseconds (captured in µs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyMs {
    /// Observations.
    pub count: u64,
    /// Mean, ms.
    pub mean: f64,
    /// Median, ms.
    pub p50: f64,
    /// 95th percentile, ms.
    pub p95: f64,
    /// 99th percentile, ms.
    pub p99: f64,
    /// Exact minimum, ms.
    pub min: f64,
    /// Exact maximum, ms.
    pub max: f64,
}

impl LatencyMs {
    fn from_us(s: &Summary) -> Self {
        LatencyMs {
            count: s.count,
            mean: s.mean / 1e3,
            p50: s.p50 / 1e3,
            p95: s.p95 / 1e3,
            p99: s.p99 / 1e3,
            min: s.min as f64 / 1e3,
            max: s.max as f64 / 1e3,
        }
    }
}

/// JSON number, with non-finite values mapped to `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One latency summary as a JSON object.
fn summary(s: &LatencyMs) -> String {
    format!(
        "{{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"min\": {}, \"max\": {}}}",
        s.count,
        num(s.mean),
        num(s.p50),
        num(s.p95),
        num(s.p99),
        num(s.min),
        num(s.max)
    )
}

/// What a load-generation run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Sessions attempted.
    pub sessions_requested: usize,
    /// Sessions that received a `Final`.
    pub sessions_completed: u64,
    /// Sessions refused admission.
    pub sessions_rejected: u64,
    /// Sessions that hit a protocol or server error.
    pub errors: u64,
    /// Open → first non-empty stable partial.
    pub first_partial_ms: LatencyMs,
    /// `Finish` sent → `Final` received.
    pub final_ms: LatencyMs,
    /// Wall time from the start of traffic until the last client
    /// thread finished (fractional ms); the closing stats and dump
    /// round trips are not counted.
    pub elapsed_ms: f64,
    /// Completed sessions per wall-clock second.
    pub sessions_per_sec: f64,
    /// Mid-run `Stats` scrapes performed (0 when scraping is off).
    pub scrapes: u64,
    /// Scrapes that failed: I/O error, a counter moving backwards, or a
    /// snapshot whose frame ledger did not reconcile.
    pub scrape_failures: u64,
    /// Whether the frame ledger reconciled in the final stats fetch
    /// *and* every mid-run scrape: `serve.frames_accepted =
    /// frames_decoded + backlog + inflight + dropped`.
    pub reconciled: bool,
    /// Closed `session`-stage spans the server reported at the end —
    /// reconciles with `sessions_completed` plus evictions.
    pub server_session_spans: u64,
    /// The server's flight-recorder dump (JSONL), fetched at the end:
    /// the pinned incident snapshot if one froze, else a live ring
    /// snapshot. Not serialized into the JSON report.
    pub flight_jsonl: String,
    /// The server's own metrics totals (`serve.*`), fetched over the
    /// wire at the end of the run.
    pub server: Vec<(String, f64)>,
}

impl LoadgenReport {
    /// Looks up one server metric by name (e.g.
    /// `"serve.deadline_misses"`).
    pub fn server_total(&self, name: &str) -> Option<f64> {
        self.server.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Serializes the report as one JSON document, with the
    /// personalized-bias A/B block (see [`run_bias_compare`]) when
    /// `bias` is given.
    pub fn to_json(&self, bias: Option<&BiasCompare>) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"sessions_requested\": {},\n",
            self.sessions_requested
        ));
        out.push_str(&format!(
            "  \"sessions_completed\": {},\n",
            self.sessions_completed
        ));
        out.push_str(&format!(
            "  \"sessions_rejected\": {},\n",
            self.sessions_rejected
        ));
        out.push_str(&format!("  \"errors\": {},\n", self.errors));
        out.push_str(&format!("  \"elapsed_ms\": {},\n", num(self.elapsed_ms)));
        out.push_str(&format!(
            "  \"sessions_per_sec\": {},\n",
            num(self.sessions_per_sec)
        ));
        out.push_str(&format!("  \"scrapes\": {},\n", self.scrapes));
        out.push_str(&format!(
            "  \"scrape_failures\": {},\n",
            self.scrape_failures
        ));
        out.push_str(&format!("  \"reconciled\": {},\n", self.reconciled));
        out.push_str(&format!(
            "  \"server_session_spans\": {},\n",
            self.server_session_spans
        ));
        out.push_str(&format!(
            "  \"first_partial_ms\": {},\n",
            summary(&self.first_partial_ms)
        ));
        out.push_str(&format!("  \"final_ms\": {},\n", summary(&self.final_ms)));
        if let Some(b) = bias {
            out.push_str(&format!(
                "  \"bias\": {{\"users\": {}, \"sessions\": {}, \"completed\": {}, \"errors\": {}, \"unbiased_p99_final_ms\": {}, \"p99_final_ms\": {}, \"deadline_miss_delta\": {}, \"unbiased_vm_rss_kb\": {}, \"vm_rss_kb\": {}, \"marginal_rss_kb_per_user\": {}}},\n",
                b.users,
                b.sessions,
                b.completed,
                b.errors,
                num(b.unbiased_p99_final_ms),
                num(b.biased_p99_final_ms),
                num(b.deadline_miss_delta),
                num(b.unbiased_vm_rss_kb),
                num(b.biased_vm_rss_kb),
                num(b.marginal_rss_kb_per_user),
            ));
        }
        out.push_str("  \"server\": {");
        for (i, (name, v)) in self.server.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    \"{name}\": {}", num(*v)));
        }
        if !self.server.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

/// A client connection's reader and writer halves.
type Link = (BufReader<TcpStream>, BufWriter<TcpStream>);

fn conn(addr: SocketAddr) -> io::Result<Link> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    Ok((BufReader::new(stream.try_clone()?), BufWriter::new(stream)))
}

/// The `serve.*` counters every scrape re-checks for monotonicity.
const MONOTONIC: &[&str] = &[
    "serve.sessions_opened",
    "serve.frames_accepted",
    "serve.frames_decoded",
    "serve.frames_dropped",
    "serve.quanta",
    "serve.finals",
    "serve.deadline_misses",
    "serve.worker_panics",
];

fn metric(pairs: &[(String, f64)], name: &str) -> Option<f64> {
    pairs.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Whether one stats snapshot's frame ledger balances: every accepted
/// frame is decoded, queued, out with a worker, or accounted dropped.
/// Stats snapshots are taken under the core lock, so this holds exactly
/// at any instant — not just at quiescence.
fn ledger_reconciles(pairs: &[(String, f64)]) -> bool {
    let get = |n| metric(pairs, n).unwrap_or(f64::NAN);
    let accounted = get("serve.frames_decoded")
        + get("serve.backlog_frames")
        + get("serve.frames_inflight")
        + get("serve.frames_dropped");
    get("serve.frames_accepted") == accounted
}

fn fetch_stats(
    rd: &mut BufReader<TcpStream>,
    wr: &mut BufWriter<TcpStream>,
) -> io::Result<Vec<(String, f64)>> {
    write_client(wr, &ClientMsg::Stats)?;
    match read_server(rd)? {
        Some(ServerMsg::Stats { jsonl }) => match ObsRecord::parse_line(jsonl.trim()) {
            Ok(ObsRecord::Run(pairs)) => Ok(pairs),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "stats reply is not a run record",
            )),
        },
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "unexpected reply to Stats",
        )),
    }
}

/// One `Stats` round trip on the scraper's connection. The server
/// closes a connection that stays silent for its idle timeout, and a
/// scrape interval may be longer than that, so a failed call is tried
/// once more on a fresh connection, which then replaces the old one.
fn scrape_stats(addr: SocketAddr, link: &mut Link) -> io::Result<Vec<(String, f64)>> {
    if let Ok(pairs) = fetch_stats(&mut link.0, &mut link.1) {
        return Ok(pairs);
    }
    *link = conn(addr)?;
    fetch_stats(&mut link.0, &mut link.1)
}

/// Polls `Stats` on a dedicated connection until `done`, verifying each
/// snapshot against the previous one. Returns `(scrapes, failures)`.
fn scrape_loop(addr: SocketAddr, every_ms: u64, done: &AtomicBool) -> (u64, u64) {
    let Ok(mut link) = conn(addr) else {
        return (0, 1);
    };
    let (mut scrapes, mut failures) = (0u64, 0u64);
    let mut prev: Vec<(String, f64)> = Vec::new();
    while !done.load(Ordering::Relaxed) {
        // Sleep in short slices so the scraper exits promptly.
        let mut slept = 0u64;
        while slept < every_ms && !done.load(Ordering::Relaxed) {
            let step = (every_ms - slept).min(10);
            std::thread::sleep(Duration::from_millis(step));
            slept += step;
        }
        if done.load(Ordering::Relaxed) {
            break;
        }
        let cur = match scrape_stats(addr, &mut link) {
            Ok(pairs) => pairs,
            Err(_) => {
                failures += 1;
                break;
            }
        };
        scrapes += 1;
        let monotone = MONOTONIC
            .iter()
            .all(|n| match (metric(&prev, n), metric(&cur, n)) {
                (Some(before), Some(now)) => now >= before,
                (None, Some(_)) => true, // first scrape
                _ => false,              // counter vanished
            });
        if !monotone || !ledger_reconciles(&cur) {
            failures += 1;
        }
        prev = cur;
    }
    (scrapes, failures)
}

/// Runs one session over an existing connection, optionally opened
/// with a named biasing model.
fn run_session(
    rd: &mut BufReader<TcpStream>,
    wr: &mut BufWriter<TcpStream>,
    utt: &[Vec<f32>],
    chunk_frames: usize,
    bias: Option<&str>,
) -> io::Result<SessionOutcome> {
    let mut out = SessionOutcome::default();
    let opened_at = Instant::now();
    write_client(
        wr,
        &ClientMsg::Open {
            lm: None,
            bias: bias.map(str::to_string),
        },
    )?;
    match read_server(rd)? {
        Some(ServerMsg::Opened { .. }) => {}
        Some(ServerMsg::Rejected { .. }) => {
            out.rejected = true;
            return Ok(out);
        }
        _ => {
            out.errored = true;
            return Ok(out);
        }
    }
    for chunk in utt.chunks(chunk_frames.max(1)) {
        let frames = chunk.iter().cloned().map(FrameInput::Scores).collect();
        write_client(wr, &ClientMsg::FramesV2(frames))?;
        match read_server(rd)? {
            Some(ServerMsg::Partial { words }) => {
                if out.first_partial_us.is_none() && !words.is_empty() {
                    out.first_partial_us = Some(opened_at.elapsed().as_micros() as u64);
                }
            }
            _ => {
                out.errored = true;
                return Ok(out);
            }
        }
    }
    let finish_at = Instant::now();
    write_client(wr, &ClientMsg::Finish)?;
    match read_server(rd)? {
        Some(ServerMsg::Final { .. }) => {
            out.final_us = Some(finish_at.elapsed().as_micros() as u64);
            out.completed = true;
        }
        _ => out.errored = true,
    }
    Ok(out)
}

/// Drives a closed-loop load test against a serve front end at `addr`.
/// Session `i` streams `utts[i % utts.len()]` (each utterance a list
/// of score rows).
///
/// # Errors
/// Connection failures; per-session protocol errors are *counted*, not
/// returned.
///
/// # Panics
/// Panics if `utts` is empty.
pub fn run_loadgen(
    addr: SocketAddr,
    utts: &[Vec<Vec<f32>>],
    cfg: &LoadgenConfig,
) -> io::Result<LoadgenReport> {
    assert!(!utts.is_empty(), "loadgen needs at least one utterance");
    // Register the per-user biasing models up front, over their own
    // connection, so the run proper measures only decode traffic. Each
    // user's phrase list is minted from its own seed — distinct users
    // get distinct models, and re-running is deterministic.
    if cfg.bias_users > 0 {
        let (mut rd, mut wr) = conn(addr)?;
        for u in 0..cfg.bias_users {
            let fst = unfold_bias::BiasingFst::mint(
                0xB1A5 ^ (u as u64).wrapping_mul(0x9E37_79B9),
                cfg.bias_vocab,
                5,
            );
            write_client(
                &mut wr,
                &ClientMsg::AddBias {
                    name: bias_user_name(u),
                    phrases: fst.phrases().to_vec(),
                },
            )?;
            match read_server(&mut rd)? {
                Some(ServerMsg::Ack) => {}
                other => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("registering biasing user {u} failed: {other:?}"),
                    ))
                }
            }
        }
    }
    let started = Instant::now();
    let concurrency = cfg.concurrency.max(1);
    let first_partial = LogHistogram::new();
    let final_lat = LogHistogram::new();
    let done = AtomicBool::new(false);
    let (outcomes, elapsed_ms, scrapes, scrape_failures) = std::thread::scope(|scope| {
        let scraper = (cfg.scrape_every_ms > 0)
            .then(|| scope.spawn(|| scrape_loop(addr, cfg.scrape_every_ms, &done)));
        // Each client thread records latencies (in µs) into its own
        // lock-free histograms; the exact-count merge below folds them
        // into the run totals independent of join order.
        let handles: Vec<_> = (0..concurrency)
            .map(|worker| {
                scope.spawn(
                    move || -> io::Result<(Vec<SessionOutcome>, LogHistogram, LogHistogram)> {
                        let (mut rd, mut wr) = conn(addr)?;
                        let (fp, fl) = (LogHistogram::new(), LogHistogram::new());
                        let mut outs = Vec::new();
                        let mut i = worker;
                        while i < cfg.sessions {
                            let utt = &utts[i % utts.len()];
                            let bias_name =
                                (cfg.bias_users > 0).then(|| bias_user_name(i % cfg.bias_users));
                            let o = run_session(
                                &mut rd,
                                &mut wr,
                                utt,
                                cfg.chunk_frames,
                                bias_name.as_deref(),
                            )?;
                            if let Some(us) = o.first_partial_us {
                                fp.record(us);
                            }
                            if let Some(us) = o.final_us {
                                fl.record(us);
                            }
                            outs.push(o);
                            i += concurrency;
                        }
                        Ok((outs, fp, fl))
                    },
                )
            })
            .collect();
        let mut outcomes = Vec::new();
        for h in handles {
            if let Ok((outs, fp, fl)) = h.join().expect("loadgen thread") {
                outcomes.extend(outs);
                first_partial.merge_from(&fp);
                final_lat.merge_from(&fl);
            }
        }
        // The run ends when the last client is done: the scraper's exit
        // and the stats/dump round trips below are not traffic.
        let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        done.store(true, Ordering::Relaxed);
        let (scrapes, failures) = scraper.map_or((0, 0), |h| h.join().expect("scrape thread"));
        (outcomes, elapsed_ms, scrapes, failures)
    });

    let mut completed = 0u64;
    let mut rejected = 0u64;
    let mut errors = 0u64;
    for o in &outcomes {
        completed += u64::from(o.completed);
        rejected += u64::from(o.rejected);
        errors += u64::from(o.errored);
    }
    // Sessions lost to connection-level failures count as errors too.
    errors += (cfg.sessions.saturating_sub(outcomes.len())) as u64;

    // Fetch the server's own counters plus the span/flight dump, and
    // optionally stop it.
    let (mut rd, mut wr) = conn(addr)?;
    let server = fetch_stats(&mut rd, &mut wr).unwrap_or_default();
    write_client(&mut wr, &ClientMsg::Dump)?;
    let (flight_jsonl, spans) = match read_server(&mut rd)? {
        Some(ServerMsg::Dump { flight, spans }) => (flight, spans),
        _ => (String::new(), String::new()),
    };
    let server_session_spans = spans
        .lines()
        .filter(|l| l.contains("\"stage\":\"session\""))
        .count() as u64;
    if cfg.shutdown_after {
        write_client(&mut wr, &ClientMsg::Shutdown)?;
    }

    let reconciled = scrape_failures == 0 && ledger_reconciles(&server);
    Ok(LoadgenReport {
        sessions_requested: cfg.sessions,
        sessions_completed: completed,
        sessions_rejected: rejected,
        errors,
        first_partial_ms: LatencyMs::from_us(&first_partial.summary()),
        final_ms: LatencyMs::from_us(&final_lat.summary()),
        elapsed_ms,
        sessions_per_sec: if elapsed_ms <= 0.0 {
            completed as f64
        } else {
            completed as f64 / (elapsed_ms / 1e3)
        },
        scrapes,
        scrape_failures,
        reconciled,
        server_session_spans,
        flight_jsonl,
        server,
    })
}

/// The personalized-bias A/B block of the loadgen report: an unbiased
/// pass and a biased pass at identical offered load, plus the memory
/// cost of carrying the per-user models.
#[derive(Debug, Clone, PartialEq)]
pub struct BiasCompare {
    /// Distinct biasing models registered (and round-robined across
    /// the biased pass's sessions).
    pub users: usize,
    /// Sessions per pass.
    pub sessions: usize,
    /// Biased-pass sessions that received a `Final`.
    pub completed: u64,
    /// Biased-pass protocol or connection errors.
    pub errors: u64,
    /// p99 `Finish` → `Final` of the unbiased reference pass, ms.
    pub unbiased_p99_final_ms: f64,
    /// p99 `Finish` → `Final` of the biased pass, ms.
    pub biased_p99_final_ms: f64,
    /// Deadline misses the server accrued during the biased pass.
    pub deadline_miss_delta: f64,
    /// Server RSS (KiB) at the end of the unbiased pass — before any
    /// biasing model was registered.
    pub unbiased_vm_rss_kb: f64,
    /// Server RSS (KiB) at the end of the biased pass.
    pub biased_vm_rss_kb: f64,
    /// RSS growth across registration + biased traffic, amortized per
    /// user (KiB). The per-user cost of personalization at rest.
    pub marginal_rss_kb_per_user: f64,
}

/// Runs the personalization A/B: one unbiased pass, then one biased
/// pass with `cfg.bias_users` distinct per-user models, at the same
/// sessions/concurrency. The unbiased pass goes first on purpose — it
/// warms the worker pool, the shared OLT, and the allocator, so the
/// RSS delta across the biased pass isolates what the per-user models
/// and their sessions actually cost. Returns the biased pass's full
/// report (it becomes the main loadgen document) plus the
/// comparison block.
///
/// # Errors
/// Connection failures; per-session errors are counted per pass.
///
/// # Panics
/// Panics if `utts` is empty or `cfg.bias_users` is 0.
pub fn run_bias_compare(
    addr: SocketAddr,
    utts: &[Vec<Vec<f32>>],
    cfg: &LoadgenConfig,
) -> io::Result<(LoadgenReport, BiasCompare)> {
    assert!(cfg.bias_users > 0, "bias compare needs --bias-users > 0");
    let unbiased_cfg = LoadgenConfig {
        bias_users: 0,
        scrape_every_ms: 0,
        shutdown_after: false,
        ..cfg.clone()
    };
    let unbiased = run_loadgen(addr, utts, &unbiased_cfg)?;
    let biased = run_loadgen(addr, utts, cfg)?;
    let misses = |r: &LoadgenReport| r.server_total("serve.deadline_misses").unwrap_or(0.0);
    let rss = |r: &LoadgenReport| r.server_total("serve.vm_rss_kb").unwrap_or(f64::NAN);
    let (rss_u, rss_b) = (rss(&unbiased), rss(&biased));
    let compare = BiasCompare {
        users: cfg.bias_users,
        sessions: cfg.sessions,
        completed: biased.sessions_completed,
        errors: biased.errors,
        unbiased_p99_final_ms: unbiased.final_ms.p99,
        biased_p99_final_ms: biased.final_ms.p99,
        deadline_miss_delta: (misses(&biased) - misses(&unbiased)).max(0.0),
        unbiased_vm_rss_kb: rss_u,
        biased_vm_rss_kb: rss_b,
        marginal_rss_kb_per_user: (rss_b - rss_u) / cfg.bias_users as f64,
    };
    Ok((biased, compare))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::Server;
    use crate::tcp::TcpFront;
    use crate::ServeConfig;
    use std::net::TcpListener;
    use std::sync::Arc;
    use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};

    #[test]
    fn loadgen_end_to_end_produces_a_report_and_shuts_the_server_down() {
        let lex = Lexicon::generate(50, 20, 6);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(3), 50, DiscountConfig::default());
        let lm = Arc::new(lm_to_wfst(&model));
        let am = Arc::new(am.fst);
        let utts: Vec<Vec<Vec<f32>>> = [[3u32, 9, 17], [7, 11, 4]]
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let u = synthesize_utterance(
                    w,
                    &lex,
                    HmmTopology::Kaldi3State,
                    &NoiseModel::default(),
                    60 + i as u64,
                );
                (0..u.scores.num_frames())
                    .map(|t| u.scores.frame(t).to_vec())
                    .collect()
            })
            .collect();

        let server = Server::start(
            ServeConfig {
                workers: 2,
                ..Default::default()
            },
            am,
            lm,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let cfg = LoadgenConfig {
            sessions: 4,
            concurrency: 2,
            chunk_frames: 8,
            scrape_every_ms: 5,
            shutdown_after: true,
            ..Default::default()
        };
        let report = run_loadgen(front.local_addr(), &utts, &cfg).unwrap();
        assert_eq!(report.sessions_requested, 4);
        assert_eq!(report.sessions_completed, 4);
        assert_eq!(report.sessions_rejected, 0);
        assert_eq!(report.errors, 0);
        assert_eq!(report.final_ms.count, 4);
        assert!(report.first_partial_ms.count >= 1, "some words decoded");
        assert_eq!(report.server_total("serve.finals"), Some(4.0));
        assert_eq!(report.server_total("serve.evictions_idle"), Some(0.0));
        // µs capture: a real network roundtrip is never exactly 0 ms,
        // which the old millisecond truncation routinely reported.
        assert!(
            report.final_ms.min > 0.0,
            "final latency truncated to zero: {:?}",
            report.final_ms
        );
        // Live scrapes reconciled against the server mid-run, and the
        // server's closed session spans match the client's tally.
        assert_eq!(report.scrape_failures, 0);
        assert!(report.reconciled, "frame ledger must balance");
        assert_eq!(report.server_session_spans, report.sessions_completed);
        assert!(
            report.flight_jsonl.contains("\"event\":\"final\""),
            "flight ring should hold the finals:\n{}",
            report.flight_jsonl
        );
        let json = report.to_json(None);
        for key in [
            "\"sessions_per_sec\"",
            "\"first_partial_ms\"",
            "\"p99\"",
            "\"scrapes\"",
            "\"scrape_failures\": 0",
            "\"reconciled\": true",
            "\"server_session_spans\": 4",
            "\"serve.deadline_misses\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        // shutdown_after stops the whole stack: the accept loop sees
        // the flag and exits, and the worker pool joins cleanly.
        front.join();
        server.shutdown();
    }

    /// A scrape interval longer than the server's idle timeout: the
    /// server closes the scraper's silent connection between scrapes,
    /// and the scraper reconnects instead of counting a failure.
    #[test]
    fn scraper_outlasts_the_server_idle_timeout() {
        let lex = Lexicon::generate(50, 20, 6);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(3), 50, DiscountConfig::default());
        let server = Server::start(
            ServeConfig {
                workers: 1,
                idle_timeout_ms: 100,
                ..Default::default()
            },
            Arc::new(am.fst),
            Arc::new(lm_to_wfst(&model)),
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let done = AtomicBool::new(false);
        let (scrapes, failures) = std::thread::scope(|scope| {
            let scraper = scope.spawn(|| scrape_loop(front.local_addr(), 250, &done));
            std::thread::sleep(Duration::from_millis(900));
            done.store(true, Ordering::Relaxed);
            scraper.join().expect("scrape thread")
        });
        assert_eq!(failures, 0, "after {scrapes} scrapes");
        assert!(scrapes >= 2, "only {scrapes} scrapes in 900 ms");
        front.stop();
        server.shutdown();
    }

    #[test]
    fn bias_compare_runs_both_passes_and_serializes() {
        let lex = Lexicon::generate(50, 20, 6);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(3), 50, DiscountConfig::default());
        let lm = Arc::new(lm_to_wfst(&model));
        let am = Arc::new(am.fst);
        let u = synthesize_utterance(
            &[3u32, 9, 17],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::default(),
            60,
        );
        let utts: Vec<Vec<Vec<f32>>> = vec![(0..u.scores.num_frames())
            .map(|t| u.scores.frame(t).to_vec())
            .collect()];

        let server = Server::start(
            ServeConfig {
                workers: 2,
                ..Default::default()
            },
            am,
            lm,
        );
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let front = TcpFront::start(listener, server.handle()).unwrap();
        let cfg = LoadgenConfig {
            sessions: 6,
            concurrency: 2,
            chunk_frames: 8,
            shutdown_after: true,
            bias_users: 3,
            bias_vocab: 50,
            ..Default::default()
        };
        let (report, bias) = run_bias_compare(front.local_addr(), &utts, &cfg).unwrap();
        assert_eq!(bias.users, 3);
        assert_eq!(bias.sessions, 6);
        assert_eq!(bias.completed, 6);
        assert_eq!(bias.errors, 0);
        assert_eq!(report.sessions_completed, 6);
        assert!(bias.biased_p99_final_ms > 0.0);
        assert!(bias.unbiased_p99_final_ms > 0.0);
        assert_eq!(bias.deadline_miss_delta, 0.0);
        // /proc-backed RSS is available on Linux CI and dev machines;
        // elsewhere the fields serialize as null and the marginal cost
        // is unmeasurable rather than wrong. At 3 users the per-user
        // figure is allocator noise, so only pin that it was computed
        // from the two finite samples — the 64 KiB/user budget is
        // asserted by CI's 1000-user run, where it is meaningful.
        if bias.unbiased_vm_rss_kb.is_finite() {
            assert!(bias.biased_vm_rss_kb.is_finite());
            assert!(bias.marginal_rss_kb_per_user.is_finite(), "{bias:?}");
        }
        let json = report.to_json(Some(&bias));
        for key in [
            "\"bias\": {\"users\": 3",
            "\"unbiased_p99_final_ms\"",
            "\"marginal_rss_kb_per_user\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert!(!report.to_json(None).contains("\"bias\""));
        front.join();
        server.shutdown();
    }

    #[test]
    fn elapsed_time_stops_when_the_last_client_joins() {
        use crate::wire::{read_client, write_server};
        // A stub front end that completes every session at once but
        // answers the closing `Dump` only after a delay: the run's
        // traffic is instant, its post-run round trips are slow.
        const DUMP_DELAY: Duration = Duration::from_millis(500);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Two client connections, then the closing stats/dump one; each
        // handler returns when loadgen drops its connection.
        let stub = std::thread::spawn(move || {
            std::thread::scope(|scope| {
                for stream in listener.incoming().take(3) {
                    let stream = stream.unwrap();
                    scope.spawn(move || {
                        let mut rd = BufReader::new(stream.try_clone().unwrap());
                        let mut wr = BufWriter::new(stream);
                        while let Ok(Some(msg)) = read_client(&mut rd) {
                            let reply = match msg {
                                ClientMsg::Open { .. } => ServerMsg::Opened { session: 0 },
                                ClientMsg::FramesV2(_) => ServerMsg::Partial { words: vec![] },
                                ClientMsg::Finish => ServerMsg::Final {
                                    words: vec![],
                                    cost: 0.0,
                                    frames: 0,
                                },
                                ClientMsg::Stats => ServerMsg::Stats {
                                    jsonl: String::new(),
                                },
                                ClientMsg::Dump => {
                                    std::thread::sleep(DUMP_DELAY);
                                    ServerMsg::Dump {
                                        flight: String::new(),
                                        spans: String::new(),
                                    }
                                }
                                _ => ServerMsg::Ack,
                            };
                            if write_server(&mut wr, &reply).is_err() {
                                break;
                            }
                        }
                    });
                }
            });
        });
        let cfg = LoadgenConfig {
            sessions: 4,
            concurrency: 2,
            ..Default::default()
        };
        let report = run_loadgen(addr, &[vec![vec![0.0; 4]; 3]], &cfg).unwrap();
        stub.join().expect("stub front end");
        assert_eq!(report.sessions_completed, 4);
        let delay_ms = DUMP_DELAY.as_secs_f64() * 1e3;
        assert!(
            report.elapsed_ms < delay_ms,
            "elapsed {} ms counts the {delay_ms} ms dump",
            report.elapsed_ms
        );
        assert!(report.sessions_per_sec > 4.0 / DUMP_DELAY.as_secs_f64());
    }
}
