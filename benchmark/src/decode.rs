//! The two single-threaded decoder workloads: `offline_ted` and
//! `stream_eesen_lat`. Same decoder layer, used two ways.

use std::time::Instant;

use crate::api::{self, DecodeResult, Models, Probe, Streamer, Task, CHUNK_FRAMES};
use crate::harness::{
    widest_first, Budget, Checker, Clock, E2e, Repeat, Replayed, Workload, MIN_REPEATS,
};
use crate::inputs::Inputs;
use crate::spans::Tracer;
use crate::yardstick;

/// Words per utterance: the mean of the task's held-out sentences.
const WORDS: usize = 9;

/// Runs `repeat` (one fixed unit of work, `passes` passes over the
/// inputs) under `budget` and packages the outcome.
fn run_repeats(
    budget: Budget,
    passes_per_repeat: usize,
    mut checker: Checker,
    mut repeat: impl FnMut(usize, &mut Checker) -> Repeat,
) -> E2e {
    let (passes, deadline, at_least) = match budget {
        Budget::Seconds(s) => (passes_per_repeat, s, MIN_REPEATS),
        Budget::Passes(k) => (k, 0.0, 1),
    };
    let started = Instant::now();
    let mut repeats = Vec::new();
    let mut before = yardstick::read();
    while repeats.len() < at_least || started.elapsed().as_secs_f64() < deadline {
        let mut r = repeat(passes, &mut checker);
        let after = yardstick::read();
        r.calibration = Some(yardstick::factor(before, after));
        before = after;
        repeats.push(r);
    }
    E2e {
        passes: (repeats.len() * passes) as f64,
        run_cpu_s: repeats.iter().map(|r| r.cpu_s).sum(),
        repeats,
        attempted: checker.attempted,
        failed: checker.failed,
        serve: None,
        invalid: Vec::new(),
    }
}

// ---------------------------------------------------------------------

/// Kaldi-TEDLIUM, owned models, one warm `DecodeScratch`, whole
/// utterances through `decode_with`, closed loop.
pub struct OfflineTed;

impl OfflineTed {
    /// Enough that nearly every seed holds an utterance past the token
    /// table's next doubling (see `harness::widest_first`).
    const UTTS: usize = 1024;
    /// The traced run counts every arc fetch; a quarter of the set keeps
    /// it inside its time.
    const REPLAY_UTTS: usize = 256;
    const OLT_ENTRIES: usize = 32_768;
    /// About 1.5 s of work per repeat on the reference box.
    const PASSES_PER_REPEAT: usize = 1;

    /// One pass; `out` receives `(input, result, seconds)`.
    fn pass(
        dec: &mut api::Offline,
        models: &Models,
        inputs: &Inputs,
        probe: &mut Probe,
        t: &mut Tracer,
        out: &mut Vec<(usize, DecodeResult, f64)>,
    ) {
        for (i, utt) in inputs.utts.iter().enumerate() {
            let t0 = Instant::now();
            let r = dec.decode(models, utt, i as u32, probe, t);
            out.push((i, r, t0.elapsed().as_secs_f64()));
        }
    }
}

impl Workload for OfflineTed {
    const NAME: &'static str = "offline_ted";
    type Ready = Models;

    fn shape(smoke: bool, traced: bool) -> (Task, usize, usize) {
        match (smoke, traced) {
            (true, _) => (Task::Tiny, 32, WORDS),
            (false, true) => (Task::TedKaldi, Self::REPLAY_UTTS, WORDS),
            (false, false) => (Task::TedKaldi, Self::UTTS, WORDS),
        }
    }

    fn setup(inputs: &Inputs) -> Models {
        let models = api::open_owned(&inputs.bundle, &mut Tracer::off());
        api::validate(&models, inputs.gen.num_pdfs());
        models
    }

    fn models(ready: &Models) -> &Models {
        ready
    }

    fn teardown(_ready: Models) {}

    fn e2e(inputs: &Inputs, refs: &[DecodeResult], budget: Budget) -> E2e {
        let models = Self::setup(inputs);
        let mut dec = api::Offline::new(Self::OLT_ENTRIES);
        let mut t = Tracer::off();
        let mut results = Vec::new();
        // Let the arc-staging arena, the OLT and the allocator fill first.
        Self::pass(
            &mut dec,
            &models,
            inputs,
            &mut Probe::Null,
            &mut t,
            &mut results,
        );
        run_repeats(
            budget,
            Self::PASSES_PER_REPEAT,
            Checker::new(refs),
            |passes, checker| {
                results.clear();
                let clock = Clock::start();
                for _ in 0..passes {
                    Self::pass(
                        &mut dec,
                        &models,
                        inputs,
                        &mut Probe::Null,
                        &mut t,
                        &mut results,
                    );
                }
                let (wall_s, cpu_s) = clock.read();
                let mut rep = Repeat {
                    frames: passes as u64 * inputs.total_frames(),
                    wall_s,
                    cpu_s,
                    ..Repeat::default()
                };
                for (i, r, secs) in &results {
                    checker.session(*i, &r.words, r.cost, true);
                    rep.final_ms.push(secs * 1e3);
                    // No partials exist offline: the chunk figure is the
                    // utterance's decode time per ten frames.
                    let chunks = inputs.utts[*i].num_frames() as f64 / CHUNK_FRAMES as f64;
                    rep.chunk_ms.push(secs * 1e3 / chunks);
                }
                rep
            },
        )
    }

    fn replay(
        inputs: &Inputs,
        refs: &[DecodeResult],
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> Replayed {
        let models = Self::setup(inputs);
        let mut dec = api::Offline::new(Self::OLT_ENTRIES);
        let mut results = Vec::new();
        Self::pass(
            &mut dec,
            &models,
            inputs,
            &mut Probe::Null,
            &mut Tracer::off(),
            &mut results,
        );
        results.clear();
        let started = Instant::now();
        Self::pass(&mut dec, &models, inputs, probe, t, &mut results);
        let wall_s = started.elapsed().as_secs_f64();
        let mut checker = Checker::new(refs);
        for (i, r, _) in &results {
            checker.session(*i, &r.words, r.cost, true);
        }
        Replayed {
            sessions: checker.attempted,
            failed: checker.failed,
            wall_s,
            ..Replayed::default()
        }
    }
}

// ---------------------------------------------------------------------

/// EESEN-TEDLIUM (CTC, the biggest LM), mmap models, `StreamSession`
/// with the tape on: ten-frame chunks with a stable partial after each,
/// then lattice, 5-best and per-word detail.
pub struct StreamEesenLat;

/// What one streamed session produced and cost.
struct Streamed {
    input: usize,
    result: DecodeResult,
    sound: bool,
    chunk_s: Vec<f64>,
    final_s: f64,
    nodes: u64,
    arcs: u64,
}

impl StreamEesenLat {
    const UTTS: usize = 256;
    /// A session costs ~0.15 s here (the lattice build), so the traced
    /// run replays a small set per pass.
    const REPLAY_UTTS: usize = 16;
    /// The serve default.
    const OLT_ENTRIES: usize = 1_024;
    const SESSIONS_PER_REPEAT: usize = 8;

    /// Streams input `i` as one session. `split_finalize` adds the bare
    /// 1-best finalize the replay uses to tell backtrace from lattice
    /// build; the measured path never calls it.
    #[allow(clippy::too_many_arguments)]
    fn session(
        streamer: &mut Streamer,
        models: &Models,
        inputs: &Inputs,
        i: usize,
        lattice: bool,
        split_finalize: bool,
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> Streamed {
        let utt = &inputs.utts[i];
        let id = i as u32;
        let mut s = streamer.begin(models, lattice, id, probe, t);
        let mut chunk_s = Vec::with_capacity(utt.num_frames() / CHUNK_FRAMES + 1);
        let mut partial = Vec::new();
        let mut frame = 0;
        while frame < utt.num_frames() {
            let end = (frame + CHUNK_FRAMES).min(utt.num_frames());
            let t0 = Instant::now();
            for f in frame..end {
                streamer.push(&mut s, models, utt.row(f), id, probe, t);
            }
            partial = api::stream_partial(&s, id, t);
            chunk_s.push(t0.elapsed().as_secs_f64());
            frame = end;
        }
        if split_finalize {
            api::stream_finalize(&s, models, id, probe, t);
        }
        let t0 = Instant::now();
        let (result, sound, nodes, arcs) = if lattice {
            let (result, lat) = api::stream_finalize_lattice(&s, models, id, probe, t);
            let nbest = api::lattice_nbest(&lat, 5, id, t);
            let detail_words = api::lattice_detail(&lat, id, t);
            let (nodes, arcs) = api::lattice_size(&lat);
            // The lattice must carry the search's own best path.
            let sound = nbest.first().is_some_and(|(w, _)| *w == result.words)
                && detail_words == result.words.len();
            (result, sound, nodes, arcs)
        } else {
            (api::stream_finalize(&s, models, id, probe, t), true, 0, 0)
        };
        let final_s = t0.elapsed().as_secs_f64();
        // A stable partial is a promise: the final must extend it.
        let sound = sound && result.words.starts_with(&partial);
        Streamed {
            input: i,
            result,
            sound,
            chunk_s,
            final_s,
            nodes,
            arcs,
        }
    }
}

impl Workload for StreamEesenLat {
    const NAME: &'static str = "stream_eesen_lat";
    type Ready = Models;

    fn shape(smoke: bool, traced: bool) -> (Task, usize, usize) {
        match (smoke, traced) {
            (true, _) => (Task::Tiny, 32, WORDS),
            (false, true) => (Task::TedEesen, Self::REPLAY_UTTS, WORDS),
            (false, false) => (Task::TedEesen, Self::UTTS, WORDS),
        }
    }

    fn setup(inputs: &Inputs) -> Models {
        let models = api::open_mmap(&inputs.bundle, &mut Tracer::off());
        api::validate(&models, inputs.gen.num_pdfs());
        models
    }

    fn models(ready: &Models) -> &Models {
        ready
    }

    fn teardown(_ready: Models) {}

    /// Pushing chunks and taking partials with the tape off.
    fn untaped_push_s(inputs: &Inputs) -> Option<f64> {
        let models = Self::setup(inputs);
        let mut streamer = Streamer::new(Self::OLT_ENTRIES);
        let mut t = Tracer::off();
        let mut push_s = 0.0;
        for measured in [false, true] {
            for i in 0..inputs.utts.len() {
                let s = Self::session(
                    &mut streamer,
                    &models,
                    inputs,
                    i,
                    false,
                    false,
                    &mut Probe::Null,
                    &mut t,
                );
                if measured {
                    push_s += s.chunk_s.iter().sum::<f64>();
                }
            }
        }
        Some(push_s)
    }

    fn e2e(inputs: &Inputs, refs: &[DecodeResult], budget: Budget) -> E2e {
        let models = Self::setup(inputs);
        let mut streamer = Streamer::new(Self::OLT_ENTRIES);
        let mut t = Tracer::off();
        let n = inputs.utts.len();
        for &i in widest_first(refs).iter().take(4) {
            Self::session(
                &mut streamer,
                &models,
                inputs,
                i,
                true,
                false,
                &mut Probe::Null,
                &mut t,
            );
        }
        // A repeat is a fixed number of sessions; successive repeats walk
        // on through the inputs so every one of them is decoded.
        let (per_repeat, budget) = match budget {
            Budget::Seconds(s) => (Self::SESSIONS_PER_REPEAT.min(n), Budget::Seconds(s)),
            Budget::Passes(k) => (k * n, Budget::Passes(1)),
        };
        let mut next = 0usize;
        let mut e2e = run_repeats(budget, 1, Checker::new(refs), |_, checker| {
            let mut done = Vec::with_capacity(per_repeat);
            let clock = Clock::start();
            for _ in 0..per_repeat {
                done.push(Self::session(
                    &mut streamer,
                    &models,
                    inputs,
                    next % n,
                    true,
                    false,
                    &mut Probe::Null,
                    &mut t,
                ));
                next += 1;
            }
            let (wall_s, cpu_s) = clock.read();
            let mut rep = Repeat {
                wall_s,
                cpu_s,
                ..Repeat::default()
            };
            for s in &done {
                checker.session(s.input, &s.result.words, s.result.cost, s.sound);
                rep.frames += inputs.utts[s.input].num_frames() as u64;
                rep.chunk_ms.extend(s.chunk_s.iter().map(|c| c * 1e3));
                rep.final_ms.push(s.final_s * 1e3);
            }
            rep
        });
        e2e.passes = next as f64 / n as f64;
        e2e
    }

    fn replay(
        inputs: &Inputs,
        refs: &[DecodeResult],
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> Replayed {
        let models = Self::setup(inputs);
        let mut streamer = Streamer::new(Self::OLT_ENTRIES);
        let n = inputs.utts.len();
        for i in 0..n {
            Self::session(
                &mut streamer,
                &models,
                inputs,
                i,
                true,
                false,
                &mut Probe::Null,
                &mut Tracer::off(),
            );
        }
        let mut checker = Checker::new(refs);
        let mut out = Replayed::default();
        let started = Instant::now();
        let done: Vec<Streamed> = (0..n)
            .map(|i| Self::session(&mut streamer, &models, inputs, i, true, true, probe, t))
            .collect();
        out.wall_s = started.elapsed().as_secs_f64();
        for s in &done {
            checker.session(s.input, &s.result.words, s.result.cost, s.sound);
            out.lattice_nodes += s.nodes;
            out.lattice_arcs += s.arcs;
            out.push_s += s.chunk_s.iter().sum::<f64>();
        }
        out.sessions = checker.attempted;
        out.failed = checker.failed;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Generator, Sink};
    use crate::inputs::{references, test_dir};
    use crate::serve::{ServePaced, ServeTcpFeat};
    use std::path::Path;

    /// The smoke-task inputs of `W` for `seed`.
    fn draw<W: Workload>(seed: u64, traced: bool, out: &Path) -> Inputs {
        let (task, n, words) = W::shape(true, traced);
        Inputs::draw(Generator::build(task), seed, n, words, out, W::NAME)
    }

    /// Everything a traced replay counts, for `seed` on the smoke task.
    fn replay_counts<W: Workload>(seed: u64, tag: &str) -> String {
        let out = test_dir(&format!("{}-{tag}-{seed}", W::NAME));
        let mut inputs = draw::<W>(seed, true, &out);
        let ready = W::setup(&inputs);
        let refs = references(W::models(&ready), &mut inputs, W::bias_of);
        W::teardown(ready);
        let mut sink = Sink::default();
        let mut tracer = Tracer::on();
        let replayed = W::replay(&inputs, &refs, &mut Probe::Sink(&mut sink), &mut tracer);
        std::fs::remove_dir_all(&out).ok();
        assert_eq!(
            replayed.failed,
            0,
            "{}: the replay disagrees with the oracle",
            W::NAME
        );
        assert_eq!(replayed.sessions as usize, inputs.utts.len());
        format!(
            "{:?} spans={} lattice={}/{} wire={}",
            sink.counts,
            tracer.spans().len(),
            replayed.lattice_nodes,
            replayed.lattice_arcs,
            replayed.wire_bytes
        )
    }

    fn same_seed_same_counts<W: Workload>() {
        let a = replay_counts::<W>(5, "a");
        assert_eq!(a, replay_counts::<W>(5, "b"), "{}", W::NAME);
        assert_ne!(a, replay_counts::<W>(6, "c"), "{}", W::NAME);
    }

    #[test]
    fn the_same_seed_reproduces_every_replay_count_exactly() {
        same_seed_same_counts::<OfflineTed>();
        same_seed_same_counts::<StreamEesenLat>();
        same_seed_same_counts::<ServePaced>();
        same_seed_same_counts::<ServeTcpFeat>();
    }

    #[test]
    fn a_short_end_to_end_run_of_every_workload_is_correct() {
        fn check<W: Workload>() {
            let out = test_dir(&format!("{}-e2e", W::NAME));
            let mut inputs = draw::<W>(9, false, &out);
            let ready = W::setup(&inputs);
            let refs = references(W::models(&ready), &mut inputs, W::bias_of);
            W::teardown(ready);
            let e2e = W::e2e(&inputs, &refs, Budget::Passes(1));
            std::fs::remove_dir_all(&out).ok();
            assert!(e2e.attempted as usize >= inputs.utts.len(), "{}", W::NAME);
            assert_eq!(e2e.failed, 0, "{}", W::NAME);
            // Generator health depends on the machine, the ledger does not.
            assert!(
                e2e.serve.as_ref().is_none_or(|s| s.ledger_ok),
                "{}",
                W::NAME
            );
            assert!(e2e.run_cpu_s > 0.0 && e2e.frames() > 0, "{}", W::NAME);
        }
        check::<OfflineTed>();
        check::<StreamEesenLat>();
        check::<ServePaced>();
        check::<ServeTcpFeat>();
    }
}
