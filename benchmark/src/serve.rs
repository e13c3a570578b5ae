//! The two served workloads: `serve_paced` (open loop, in process) and
//! `serve_tcp_feat` (closed loop, features over TCP).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::api::{
    self, DecodeResult, InProc, Models, Probe, Replay, ServeStats, SessionId, Task, Tcp,
    CHUNK_FRAMES,
};
use crate::harness::{
    widest_first, Budget, Checker, Clock, E2e, Repeat, Replayed, ServeSide, Workload, MIN_REPEATS,
};
use crate::inputs::{arrivals, Inputs};
use crate::spans::Tracer;
use crate::sys;
use crate::yardstick;

/// Words per utterance: the mean of the task's held-out sentences.
const WORDS: usize = 9;

/// The frames ledger must balance once every session is collected:
/// `accepted = decoded + backlog + inflight + dropped`, nothing
/// refused, nothing admitted at tightened beams.
fn ledger_ok(stats: &ServeStats, backlog: f64, inflight: f64) -> bool {
    stats.frames_accepted as f64
        == stats.frames_decoded as f64 + backlog + inflight + stats.frames_dropped as f64
        && stats.degraded_admissions == 0
        && stats.rejected_capacity + stats.rejected_overload + stats.frames_rejected == 0
}

fn chunks_of(frames: usize) -> usize {
    frames.div_ceil(CHUNK_FRAMES)
}

/// Decodes `input` through a fresh replay core before anything is
/// recorded, so the measured pass starts on a scratch that has met its
/// widest session, as the threaded runs do.
fn warm_core(core: &mut Replay, inputs: &Inputs, input: usize, bias: Option<&str>) {
    let (mut t, mut probe) = (Tracer::off(), Probe::Null);
    let utt = &inputs.utts[input];
    let Some(id) = core.open(bias, 0, 0, &mut t) else {
        return;
    };
    for f in 0..utt.num_frames() {
        core.ingest_scores(id, utt.row(f), 0, 0, &mut t);
    }
    core.finish(id, 0, 0, &mut t);
    core.drain(0, |_| 0, &mut probe, &mut t);
    core.take_result(id, 0, &mut t);
}

// ---------------------------------------------------------------------

/// Kaldi-TEDLIUM score rows into the in-process threaded server at a
/// pinned arrival rate; one generator thread multiplexes every session.
pub struct ServePaced;

/// One step of one session, ordered by due time.
type Event = Reverse<(u64, u32, u32)>;

struct Live {
    id: SessionId,
    input: usize,
    broken: bool,
}

impl ServePaced {
    /// As `OfflineTed::UTTS`: the worker's scratch is as history-bound.
    const UTTS: usize = 1024;
    /// The hand-driven replay records some twenty spans per chunk.
    const REPLAY_UTTS: usize = 256;
    /// Sessions per second, with seeded jitter.
    const RATE: f64 = 200.0;
    /// A session pushes one chunk per 100 ms: real time.
    const CHUNK_PERIOD_NS: u64 = 100_000_000;
    const BIAS_USERS: usize = 64;
    /// How long the generator may sleep between polls.
    const POLL: Duration = Duration::from_micros(200);
    /// A final this late counts as lost.
    const FINAL_TIMEOUT_NS: u64 = 30_000_000_000;
    /// Sessions pushed through unpaced before the run, widest first.
    const WARM_SESSIONS: usize = 8;
    const WARM_TIMEOUT: Duration = Duration::from_secs(5);

    fn bias_name_of(input: usize) -> Option<String> {
        Self::bias_of(input).map(api::bias_name)
    }

    fn register_biases(add: &mut dyn FnMut(&str, Arc<api::Bias>), vocab: u32) {
        for user in 0..Self::BIAS_USERS {
            add(&api::bias_name(user), api::mint_bias(user, vocab));
        }
    }
}

impl Workload for ServePaced {
    const NAME: &'static str = "serve_paced";
    type Ready = (Models, InProc);

    fn shape(smoke: bool, traced: bool) -> (Task, usize, usize) {
        match (smoke, traced) {
            (true, _) => (Task::Tiny, 32, WORDS),
            (false, true) => (Task::TedKaldi, Self::REPLAY_UTTS, WORDS),
            (false, false) => (Task::TedKaldi, Self::UTTS, WORDS),
        }
    }

    /// One session in four opens with one of the 64 minted users.
    fn bias_of(input: usize) -> Option<usize> {
        input
            .is_multiple_of(4)
            .then_some((input / 4) % Self::BIAS_USERS)
    }

    fn setup(inputs: &Inputs) -> Self::Ready {
        let models = api::open_mmap(&inputs.bundle, &mut Tracer::off());
        api::validate(&models, inputs.gen.num_pdfs());
        let server = InProc::start(&models, None);
        (models, server)
    }

    fn models(ready: &Self::Ready) -> &Models {
        &ready.0
    }

    fn teardown(ready: Self::Ready) {
        ready.1.shutdown();
    }

    fn e2e_passes(seconds: f64, inputs: &Inputs, _replay_wall_s: f64) -> usize {
        ((seconds * Self::RATE / inputs.utts.len() as f64) as usize).max(1)
    }

    fn e2e(inputs: &Inputs, refs: &[DecodeResult], budget: Budget) -> E2e {
        let n = inputs.utts.len();
        let sessions = match budget {
            Budget::Seconds(s) => (s * Self::RATE) as usize,
            Budget::Passes(k) => k * n,
        }
        .max(n);
        let due = arrivals(inputs.seed, sessions, Self::RATE);
        let span_ns = *due.last().expect("at least one session");
        // Measuring windows tile [ramp, last arrival): the ramp fills the
        // server to its steady concurrency, the drain after the last
        // arrival empties it, and neither is measured.
        let longest = inputs
            .utts
            .iter()
            .map(|u| chunks_of(u.num_frames()))
            .max()
            .unwrap_or(1);
        let ramp_ns = (longest as u64 * Self::CHUNK_PERIOD_NS).min(span_ns / 4);
        let windows = (((span_ns - ramp_ns) as f64 / 1e9) as usize).max(MIN_REPEATS);
        let window_ns = (span_ns - ramp_ns) / windows as u64;

        let (models, server) = Self::setup(inputs);
        Self::register_biases(&mut |name, b| server.add_bias(name, b), inputs.gen.vocab());
        // The worker's scratch meets its widest sessions before the
        // clock starts (see `widest_first`); they are not scored.
        for &input in widest_first(refs).iter().take(Self::WARM_SESSIONS) {
            let utt = &inputs.utts[input];
            let Some(id) = server.open(Self::bias_name_of(input).as_deref()) else {
                continue;
            };
            for f in 0..utt.num_frames() {
                server.ingest_scores(id, utt.row(f));
            }
            server.finish(id);
            let asked = Instant::now();
            while matches!(server.poll_result(id), Ok(None)) && asked.elapsed() < Self::WARM_TIMEOUT
            {
                std::thread::sleep(Self::POLL);
            }
        }
        let rss_idle = sys::rss_kib();

        let mut checker = Checker::new(refs);
        let mut heap: BinaryHeap<Event> = due
            .iter()
            .enumerate()
            .map(|(s, &at)| Reverse((at, s as u32, 0)))
            .collect();
        let mut live: Vec<Option<Live>> = (0..sessions).map(|_| None).collect();
        // (session, finish due) awaiting a final; (session, frames the
        // chunk completes, chunk due) awaiting a probed partial.
        let mut finals: Vec<(u32, u64)> = Vec::new();
        let mut probes: Vec<(u32, u64, u64)> = Vec::new();
        let mut late_us = Vec::with_capacity(sessions * 30);
        let mut repeats: Vec<Repeat> = Vec::new();
        let mut side = ServeSide::default();
        let mut live_count = 0usize;

        let started = Instant::now();
        let now_ns = |started: &Instant| started.elapsed().as_nanos() as u64;
        let run_clock = Clock::start();
        // The open window: its clock, the server's decoded-frame count at
        // its start, and its samples.
        let mut window: Option<(Clock, u64, Repeat)> = None;
        let mut next_edge = ramp_ns;

        loop {
            let now = now_ns(&started);
            if now >= next_edge && repeats.len() < windows {
                let decoded = server.stats().frames_decoded;
                if let Some((clock, from, mut rep)) = window.take() {
                    let (wall_s, cpu_s) = clock.read();
                    rep.frames = decoded - from;
                    rep.wall_s = wall_s;
                    rep.cpu_s = cpu_s;
                    rep.backlog_frames = server.scrape().backlog_frames;
                    repeats.push(rep);
                    if repeats.len() == windows / 2 {
                        side.session_rss_kib = sys::rss_kib().saturating_sub(rss_idle) as f64
                            / live_count.max(1) as f64;
                    }
                }
                if repeats.len() < windows {
                    window = Some((Clock::start(), decoded, Repeat::default()));
                    next_edge += window_ns;
                }
            }

            while heap.peek().is_some_and(|Reverse((at, _, _))| *at <= now) {
                let Reverse((at, s, step)) = heap.pop().expect("peeked");
                let late = (now_ns(&started) - at) as f64 / 1e3;
                late_us.push(late);
                if let Some((_, _, rep)) = window.as_mut() {
                    rep.late_us.push(late);
                }
                let input = s as usize % n;
                let utt = &inputs.utts[input];
                let slot = &mut live[s as usize];
                if step == 0 {
                    match server.open(Self::bias_name_of(input).as_deref()) {
                        Some(id) => {
                            *slot = Some(Live {
                                id,
                                input,
                                broken: false,
                            });
                            live_count += 1;
                        }
                        None => {
                            checker.lost();
                            continue;
                        }
                    }
                }
                let l = slot.as_mut().expect("opened at step 0");
                let chunks = chunks_of(utt.num_frames()) as u32;
                if step < chunks {
                    let from = step as usize * CHUNK_FRAMES;
                    let to = (from + CHUNK_FRAMES).min(utt.num_frames());
                    for f in from..to {
                        l.broken |= !server.ingest_scores(l.id, utt.row(f));
                    }
                    probes.push((s, to as u64, at));
                    heap.push(Reverse((at + Self::CHUNK_PERIOD_NS, s, step + 1)));
                } else {
                    l.broken |= !server.finish(l.id);
                    finals.push((s, at));
                }
            }

            let now = now_ns(&started);
            probes.retain(|&(s, frames, at)| {
                let l = live[s as usize].as_ref().expect("probed sessions are live");
                match server.progress(l.id) {
                    Some((decoded, _)) if decoded < frames => true,
                    Some(_) => {
                        // Decoded: the partial that reflects the chunk.
                        std::hint::black_box(server.partial(l.id));
                        if let Some((_, _, rep)) = window.as_mut() {
                            rep.chunk_ms.push((now_ns(&started) - at) as f64 / 1e6);
                        }
                        false
                    }
                    None => false,
                }
            });
            finals.retain(|&(s, at)| {
                let l = live[s as usize]
                    .as_ref()
                    .expect("finished sessions are live");
                let outcome = match server.poll_result(l.id) {
                    Ok(None) if now - at < Self::FINAL_TIMEOUT_NS => return true,
                    Ok(Some(r)) if !l.broken => Some(r),
                    _ => None,
                };
                match outcome {
                    Some(r) => {
                        if let Some((_, _, rep)) = window.as_mut() {
                            rep.final_ms.push((now_ns(&started) - at) as f64 / 1e6);
                        }
                        checker.session(l.input, &r.words, r.cost, true);
                    }
                    None => checker.lost(),
                }
                live_count -= 1;
                false
            });

            match heap.peek() {
                None if finals.is_empty() => break,
                None => std::thread::sleep(Self::POLL),
                Some(Reverse((at, _, _))) => {
                    let wait = Duration::from_nanos(at.saturating_sub(now_ns(&started)));
                    if !wait.is_zero() {
                        std::thread::sleep(wait.min(Self::POLL));
                    }
                }
            }
        }
        let (_, run_cpu_s) = run_clock.read();

        let scrape = server.scrape();
        side.stats = server.stats();
        side.search_occupancy = scrape.search_occupancy;
        side.ledger_ok = ledger_ok(&side.stats, scrape.backlog_frames, scrape.frames_inflight);
        side.late_us = late_us;
        server.shutdown();
        drop(models);

        // Generator health, over the whole measured span: numbers from a
        // late or starved generator measure the harness, and a server that
        // owes more at the end than at mid-run is not carrying the load.
        // A run the box stalled badly enough to trip these is refused, not
        // trimmed.
        let mut invalid = Vec::new();
        if sys::nproc() < 2 {
            invalid.push("fewer than 2 cores: generator and worker share one".to_string());
        }
        let measured_late: Vec<f64> = repeats
            .iter()
            .flat_map(|r| r.late_us.iter().copied())
            .collect();
        if !measured_late.is_empty() {
            let late_p99 = crate::stats::tail(&measured_late, 99.0).value;
            if late_p99 > Self::CHUNK_PERIOD_NS as f64 / 1e3 {
                invalid.push(format!(
                    "generator ran late: p99 {late_p99:.0} us over {} events exceeds one chunk period",
                    measured_late.len()
                ));
            }
        }
        // Backlog is read at every window's closing edge; a quarter of the
        // windows stands for "the end" and for "mid-run", and the slack is
        // one chunk period of offered traffic.
        let backlog: Vec<f64> = repeats.iter().map(|r| r.backlog_frames).collect();
        let quarter = (backlog.len() / 4).max(1);
        let mid_from = (backlog.len() / 2).saturating_sub(quarter / 2);
        if let (Some(mid), Some(end)) = (
            backlog.get(mid_from..mid_from + quarter),
            backlog.get(backlog.len() - quarter.min(backlog.len())..),
        ) {
            let (mid, end) = (crate::stats::median(mid), crate::stats::median(end));
            let slack = inputs.total_frames() as f64 / n as f64 * Self::RATE * 0.1;
            if end > mid + slack {
                invalid.push(format!(
                    "backlog grew from {mid} frames at mid-run to {end} at the end"
                ));
            }
        }
        let mut failed = checker.failed;
        if !side.ledger_ok {
            // A correctness failure, not a health one: it counts.
            failed += 1;
            invalid.push(format!(
                "frames ledger does not reconcile: {:?}",
                side.stats
            ));
        }
        E2e {
            passes: sessions as f64 / n as f64,
            repeats,
            run_cpu_s,
            attempted: checker.attempted,
            failed,
            serve: Some(side),
            invalid,
        }
    }

    fn replay(
        inputs: &Inputs,
        refs: &[DecodeResult],
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> Replayed {
        let n = inputs.utts.len();
        let due = arrivals(inputs.seed, n, Self::RATE);
        // The same schedule the generator follows, flattened to due order.
        let mut events: Vec<(u64, u32, u32)> = Vec::new();
        for (s, &at) in due.iter().enumerate() {
            let chunks = chunks_of(inputs.utts[s].num_frames()) as u32;
            events.extend(
                (0..=chunks).map(|k| (at + u64::from(k) * Self::CHUNK_PERIOD_NS, s as u32, k)),
            );
        }
        events.sort_unstable();

        let models = api::open_mmap(&inputs.bundle, &mut Tracer::off());
        let mut out = Replayed::default();
        for measured in [false, true] {
            let (mut off_t, mut off_p) = (Tracer::off(), Probe::Null);
            let (t, probe): (&mut Tracer, &mut Probe) = if measured {
                (&mut *t, &mut *probe)
            } else {
                (&mut off_t, &mut off_p)
            };
            let mut core = Replay::new(&models, None);
            Self::register_biases(&mut |name, b| core.add_bias(name, b), inputs.gen.vocab());
            let widest = widest_first(refs)[0];
            warm_core(
                &mut core,
                inputs,
                widest,
                Self::bias_name_of(widest).as_deref(),
            );
            let mut ids: Vec<SessionId> = vec![0; n];
            let mut index_of: BTreeMap<SessionId, u32> = BTreeMap::new();
            let mut checker = Checker::new(refs);
            let started = Instant::now();
            for &(at, s, step) in &events {
                let now_ms = at / 1_000_000;
                let (si, utt) = (s as usize, &inputs.utts[s as usize]);
                if step == 0 {
                    match core.open(Self::bias_name_of(si).as_deref(), now_ms, s, t) {
                        Some(id) => {
                            ids[si] = id;
                            index_of.insert(id, s);
                        }
                        None => {
                            checker.lost();
                            continue;
                        }
                    }
                }
                let id = ids[si];
                let session_of = |id: SessionId| index_of.get(&id).copied().unwrap_or(0);
                if step < chunks_of(utt.num_frames()) as u32 {
                    let from = step as usize * CHUNK_FRAMES;
                    for f in from..(from + CHUNK_FRAMES).min(utt.num_frames()) {
                        core.ingest_scores(id, utt.row(f), now_ms, s, t);
                    }
                    core.drain(now_ms, session_of, probe, t);
                } else {
                    core.finish(id, now_ms, s, t);
                    core.drain(now_ms, session_of, probe, t);
                    match core.take_result(id, s, t) {
                        Some(r) => checker.session(si, &r.words, r.cost, true),
                        None => checker.lost(),
                    }
                    if si % 64 == 63 {
                        core.scrape(t);
                    }
                }
            }
            let scrape = core.scrape(&mut Tracer::off());
            if !ledger_ok(&core.stats(), scrape.backlog_frames, scrape.frames_inflight) {
                checker.failed += 1;
            }
            out = Replayed {
                sessions: checker.attempted,
                failed: checker.failed,
                wall_s: started.elapsed().as_secs_f64(),
                ..Replayed::default()
            };
        }
        out
    }
}

// ---------------------------------------------------------------------

/// Kaldi-Voxforge behind `TcpFront` with a real GMM scorer: two client
/// connections send `FramesV2` feature chunks and wait for each
/// `Partial`, then `Finish` and wait for `Final`.
pub struct ServeTcpFeat;

/// One session as a wire client saw it.
struct Served {
    input: usize,
    /// `None` when the session was refused, errored or timed out.
    fin: Option<api::WireFinal>,
    sound: bool,
    chunk_s: Vec<f64>,
    final_s: f64,
}

impl Served {
    /// A session nothing has come back for yet.
    fn pending(input: usize) -> Served {
        Served {
            input,
            fin: None,
            sound: true,
            chunk_s: Vec::new(),
            final_s: 0.0,
        }
    }
}

impl ServeTcpFeat {
    /// `wer_pct` is over these: at 11 % WER and five words each, fewer
    /// leave it moving 15 % or more from seed to seed.
    const UTTS: usize = 512;
    const REPLAY_UTTS: usize = 96;
    /// Short utterances: scoring costs ~0.15 ms a frame, and a run must
    /// still collect a thousand finals for its tail.
    const WORDS: usize = 5;
    const CLIENTS: usize = 2;
    /// About 1.5 s of work per repeat on the reference box. A final's
    /// latency here is two thread wake-ups and flips between ~0.6 and
    /// ~1.7 ms; sixty finals a repeat keep a repeat's median from
    /// flipping with it.
    const SESSIONS_PER_CLIENT: usize = 30;

    fn session(client: &mut api::Client, inputs: &Inputs, input: usize) -> Served {
        let utt = &inputs.utts[input];
        let feats = utt
            .features
            .as_ref()
            .expect("a GMM task keeps its features");
        let mut out = Served::pending(input);
        if !client.open() {
            return out;
        }
        let mut partial = Vec::new();
        for chunk in feats.chunks(CHUNK_FRAMES) {
            let t0 = Instant::now();
            match client.send_features(chunk) {
                Some(words) => partial = words,
                None => return out,
            }
            out.chunk_s.push(t0.elapsed().as_secs_f64());
        }
        let t0 = Instant::now();
        out.fin = client.finish();
        out.final_s = t0.elapsed().as_secs_f64();
        if let Some(f) = &out.fin {
            out.sound = f.words.starts_with(&partial) && f.frames == feats.len() as u64;
        }
        out
    }
}

impl Workload for ServeTcpFeat {
    const NAME: &'static str = "serve_tcp_feat";
    type Ready = (Models, Tcp);

    fn shape(smoke: bool, traced: bool) -> (Task, usize, usize) {
        match (smoke, traced) {
            (true, _) => (Task::TinyGmm, 16, Self::WORDS),
            (false, true) => (Task::VoxGmm, Self::REPLAY_UTTS, Self::WORDS),
            (false, false) => (Task::VoxGmm, Self::UTTS, Self::WORDS),
        }
    }

    fn setup(inputs: &Inputs) -> Self::Ready {
        let models = api::open_mmap(&inputs.bundle, &mut Tracer::off());
        api::validate(&models, inputs.gen.num_pdfs());
        let server = Tcp::start(&models, inputs.gen.gmm());
        (models, server)
    }

    fn models(ready: &Self::Ready) -> &Models {
        &ready.0
    }

    fn teardown(ready: Self::Ready) {
        ready.1.shutdown();
    }

    fn e2e(inputs: &Inputs, refs: &[DecodeResult], budget: Budget) -> E2e {
        let n = inputs.utts.len();
        let (per_client, deadline, at_least) = match budget {
            Budget::Seconds(s) => (Self::SESSIONS_PER_CLIENT, s, MIN_REPEATS),
            Budget::Passes(k) => ((k * n).div_ceil(Self::CLIENTS), 0.0, 1),
        };
        let (models, server) = Self::setup(inputs);
        let addr = server.addr();
        let barrier = Barrier::new(Self::CLIENTS + 1);
        let stop = AtomicBool::new(false);
        let next = AtomicUsize::new(0);
        let widest = widest_first(refs);

        let run_clock = Clock::start();
        let (clocks, per_client_rounds) = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..Self::CLIENTS)
                .map(|k| {
                    let (barrier, stop, next, widest) = (&barrier, &stop, &next, &widest);
                    scope.spawn(move || {
                        let mut client = api::Client::connect(addr).ok();
                        let mut rounds: Vec<Vec<Served>> = Vec::new();
                        // A warm-up session on one of the widest inputs,
                        // then rounds in step with main.
                        if let Some(c) = client.as_mut() {
                            Self::session(c, inputs, widest[k % n]);
                        }
                        loop {
                            barrier.wait();
                            if stop.load(Ordering::SeqCst) {
                                return rounds;
                            }
                            let mut round = Vec::with_capacity(per_client);
                            for _ in 0..per_client {
                                let input = next.fetch_add(1, Ordering::Relaxed) % n;
                                round.push(match client.as_mut() {
                                    Some(c) => Self::session(c, inputs, input),
                                    None => Served::pending(input),
                                });
                            }
                            rounds.push(round);
                            barrier.wait();
                        }
                    })
                })
                .collect();
            let started = Instant::now();
            // Per round: wall and CPU seconds, and the calibration factor
            // from yardstick readings taken while the clients wait at
            // the barrier and the server idles.
            let mut clocks: Vec<(f64, f64, f64)> = Vec::new();
            let mut before = yardstick::read();
            loop {
                let done = clocks.len() >= at_least && started.elapsed().as_secs_f64() >= deadline;
                stop.store(done, Ordering::SeqCst);
                barrier.wait();
                if done {
                    break;
                }
                let clock = Clock::start();
                barrier.wait();
                let (wall_s, cpu_s) = clock.read();
                let after = yardstick::read();
                clocks.push((wall_s, cpu_s, yardstick::factor(before, after)));
                before = after;
            }
            let rounds: Vec<Vec<Vec<Served>>> = clients
                .into_iter()
                .map(|c| c.join().expect("client threads do not panic"))
                .collect();
            (clocks, rounds)
        });
        let (_, run_cpu_s) = run_clock.read();

        let mut checker = Checker::new(refs);
        let mut repeats = Vec::with_capacity(clocks.len());
        for (r, &(wall_s, cpu_s, factor)) in clocks.iter().enumerate() {
            let mut rep = Repeat {
                wall_s,
                cpu_s,
                calibration: Some(factor),
                ..Repeat::default()
            };
            for s in per_client_rounds.iter().flat_map(|rounds| &rounds[r]) {
                match &s.fin {
                    Some(f) => {
                        checker.session(s.input, &f.words, f.cost, s.sound);
                        rep.frames += f.frames;
                        rep.chunk_ms.extend(s.chunk_s.iter().map(|c| c * 1e3));
                        rep.final_ms.push(s.final_s * 1e3);
                    }
                    None => checker.lost(),
                }
            }
            repeats.push(rep);
        }

        let scrape = server.scrape();
        let stats = server.stats();
        let side = ServeSide {
            stats,
            search_occupancy: scrape.search_occupancy,
            ledger_ok: ledger_ok(&stats, scrape.backlog_frames, scrape.frames_inflight),
            ..ServeSide::default()
        };
        server.shutdown();
        drop(models);
        let mut invalid = Vec::new();
        if !side.ledger_ok {
            checker.failed += 1;
            invalid.push(format!(
                "frames ledger does not reconcile: {:?}",
                side.stats
            ));
        }
        E2e {
            passes: (repeats.len() * per_client * Self::CLIENTS) as f64 / n as f64,
            repeats,
            run_cpu_s,
            attempted: checker.attempted,
            failed: checker.failed,
            serve: Some(side),
            invalid,
        }
    }

    fn replay(
        inputs: &Inputs,
        refs: &[DecodeResult],
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> Replayed {
        let models = api::open_mmap(&inputs.bundle, &mut Tracer::off());
        let mut out = Replayed::default();
        for measured in [false, true] {
            let (mut off_t, mut off_p) = (Tracer::off(), Probe::Null);
            let (t, probe): (&mut Tracer, &mut Probe) = if measured {
                (&mut *t, &mut *probe)
            } else {
                (&mut off_t, &mut off_p)
            };
            let mut core = Replay::new(&models, inputs.gen.gmm());
            warm_core(&mut core, inputs, widest_first(refs)[0], None);
            let mut checker = Checker::new(refs);
            // One logical millisecond per message: the replay has no
            // wall clock, only an order.
            let mut now_ms = 0u64;
            let started = Instant::now();
            for (i, utt) in inputs.utts.iter().enumerate() {
                let s = i as u32;
                let feats = utt
                    .features
                    .as_ref()
                    .expect("a GMM task keeps its features");
                let Some(id) = core.open(None, now_ms, s, t) else {
                    checker.lost();
                    continue;
                };
                core.wire_open(id, s, t);
                for chunk in feats.chunks(CHUNK_FRAMES) {
                    now_ms += 1;
                    for feat in core.wire_features(chunk, s, t) {
                        core.ingest_features(id, &feat, now_ms, s, t);
                    }
                    core.drain(now_ms, |_| s, probe, t);
                    let partial = core.partial(id, s, t).unwrap_or_default();
                    core.wire_partial(partial, s, t);
                }
                now_ms += 1;
                core.finish(id, now_ms, s, t);
                core.drain(now_ms, |_| s, probe, t);
                match core.take_result(id, s, t) {
                    Some(r) => {
                        core.wire_finish(&r, s, t);
                        checker.session(i, &r.words, r.cost, true);
                    }
                    None => checker.lost(),
                }
            }
            let scrape = core.scrape(t);
            if !ledger_ok(&core.stats(), scrape.backlog_frames, scrape.frames_inflight) {
                checker.failed += 1;
            }
            out = Replayed {
                sessions: checker.attempted,
                failed: checker.failed,
                wall_s: started.elapsed().as_secs_f64(),
                wire_bytes: core.wire_bytes,
                ..Replayed::default()
            };
        }
        out
    }
}
