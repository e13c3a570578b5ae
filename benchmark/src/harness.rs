//! What every workload shares: the repeat loop's bookkeeping, the
//! correctness gate, and the reduction of a run to end-to-end metrics.

use std::time::Instant;

use crate::api::{self, DecodeResult, Probe, Utt};
use crate::inputs::{transcript_hash, Inputs};
use crate::spans::Tracer;
use crate::stats::{median, tail, Tail};
use crate::sys;

/// A run reports the median of per-repeat values, so it needs a few.
pub const MIN_REPEATS: usize = 5;

/// How much an end-to-end run does.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole repeats until this many seconds have passed (at least
    /// [`MIN_REPEATS`]): the measuring run.
    Seconds(f64),
    /// Exactly this many passes over the input set: the traced run's
    /// own end-to-end reference, comparable with one replay pass.
    Passes(usize),
}

/// One repeat: a fixed unit of work and what it cost.
#[derive(Debug, Default)]
pub struct Repeat {
    pub frames: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub chunk_ms: Vec<f64>,
    pub final_ms: Vec<f64>,
    /// How late the generator sent each event of this repeat,
    /// microseconds (open loop only).
    pub late_us: Vec<f64>,
    /// Frames the server still owed when this window closed (open loop
    /// only).
    pub backlog_frames: f64,
    /// What turns this repeat's times into calibrated times
    /// ([`crate::yardstick::factor`] of the readings around it). `None`
    /// on the open loop, whose latencies are mostly waits that do not
    /// scale with the box's speed.
    pub calibration: Option<f64>,
}

/// Stopwatch over wall and process CPU time.
pub struct Clock {
    wall: Instant,
    cpu: std::time::Duration,
}

impl Clock {
    pub fn start() -> Clock {
        Clock {
            wall: Instant::now(),
            cpu: sys::process_cpu(),
        }
    }

    /// `(wall, cpu)` seconds since start.
    pub fn read(&self) -> (f64, f64) {
        (
            self.wall.elapsed().as_secs_f64(),
            (sys::process_cpu() - self.cpu).as_secs_f64(),
        )
    }
}

/// The correctness gate. Every timed result is compared, words and cost
/// bits, with the untimed oracle of the same input.
pub struct Checker<'a> {
    refs: &'a [DecodeResult],
    pub attempted: u64,
    pub failed: u64,
}

impl<'a> Checker<'a> {
    pub fn new(refs: &'a [DecodeResult]) -> Self {
        Checker {
            refs,
            attempted: 0,
            failed: 0,
        }
    }

    /// Scores one session's final transcript for input `i`; `sound` is
    /// whatever else the workload verified about the session.
    pub fn session(&mut self, i: usize, words: &[u32], cost: f32, sound: bool) {
        self.attempted += 1;
        let r = &self.refs[i];
        if !(sound && words == r.words && cost.to_bits() == r.cost.to_bits()) {
            self.failed += 1;
        }
    }

    /// A session that produced no transcript: rejected, errored, timed
    /// out or degraded.
    pub fn lost(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }
}

/// WER against ground truth and a digest of the oracle transcripts, in
/// input order. Every timed transcript is checked bit for bit against
/// these, so they describe the run, and they repeat exactly per seed
/// however many sessions a run fits.
pub fn quality(utts: &[Utt], refs: &[DecodeResult]) -> (f64, u64) {
    let (mut errors, mut words, mut digest) = (0u64, 0u64, 0xcbf2_9ce4_8422_2325u64);
    for (u, r) in utts.iter().zip(refs) {
        let (e, n) = api::word_errors(u.words(), &r.words);
        errors += e;
        words += n;
        digest = (digest ^ transcript_hash(&r.words, r.cost)).wrapping_mul(0x0100_0000_01b3);
    }
    (100.0 * errors as f64 / words.max(1) as f64, digest)
}

/// The inputs ordered by how far their oracle search pushed the
/// frontier, widest first.
///
/// The program's token tables only grow, and clearing them costs time in
/// proportion to their size on every frame, so a worker's speed depends
/// on the widest utterance it has ever decoded (on Kaldi-TEDLIUM the
/// table doubles at 2 048 live tokens and `frames_per_s` drops 10 %).
/// Every workload therefore warms up on its widest inputs: the timed
/// part then runs where a long-lived process would, whichever inputs it
/// reaches first.
pub fn widest_first(refs: &[DecodeResult]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..refs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(refs[i].stats.max_active));
    order
}

/// What the threaded server said about itself during an end-to-end run.
#[derive(Debug, Default, Clone)]
pub struct ServeSide {
    pub stats: api::ServeStats,
    pub search_occupancy: f64,
    pub session_rss_kib: f64,
    /// Generator lateness over the whole run, ramp and drain included,
    /// microseconds (open loop only).
    pub late_us: Vec<f64>,
    pub ledger_ok: bool,
}

/// An end-to-end run, before reduction.
pub struct E2e {
    pub repeats: Vec<Repeat>,
    /// Passes over the input set the whole run made.
    pub passes: f64,
    /// Process CPU seconds of the whole run, ramp and drain included.
    pub run_cpu_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub serve: Option<ServeSide>,
    /// Reasons the run's numbers must not be used (empty when healthy).
    pub invalid: Vec<String>,
}

impl E2e {
    pub fn frames(&self) -> u64 {
        self.repeats.iter().map(|r| r.frames).sum()
    }
}

/// A run's timing figures: each the median of the per-repeat values over
/// every repeat (for a latency, of the repeats' own medians).
pub struct Figures {
    pub frames_per_s: f64,
    pub cpu_ms_per_audio_s: f64,
    /// `None` when the run was too short for any session to report
    /// inside a repeat.
    pub chunk_p50_ms: Option<f64>,
    pub final_p50_ms: Option<f64>,
}

/// The figures of `repeats` with every time of a repeat multiplied by
/// `scale` of it.
fn figures(repeats: &[Repeat], scale: impl Fn(&Repeat) -> f64) -> Figures {
    let per_repeat = |of: &dyn Fn(&Repeat) -> f64| -> Vec<f64> { repeats.iter().map(of).collect() };
    let p50 = |of: &dyn Fn(&Repeat) -> &Vec<f64>| -> Option<f64> {
        let medians: Vec<f64> = repeats
            .iter()
            .filter(|r| !of(r).is_empty())
            .map(|r| median(of(r)) * scale(r))
            .collect();
        (!medians.is_empty()).then(|| median(&medians))
    };
    Figures {
        frames_per_s: median(&per_repeat(&|r| r.frames as f64 / (r.wall_s * scale(r)))),
        cpu_ms_per_audio_s: median(&per_repeat(&|r| {
            r.cpu_s * scale(r) * 1e3 / (r.frames as f64 * api::FRAME_SECONDS)
        })),
        chunk_p50_ms: p50(&|r| &r.chunk_ms),
        final_p50_ms: p50(&|r| &r.final_ms),
    }
}

/// An end-to-end run, reduced.
pub struct Reduced {
    /// In calibrated time (see `crate::yardstick`): what the run reports.
    pub calibrated: Figures,
    /// As measured: printed beside the calibrated figures by every run.
    pub raw: Figures,
    /// The supported tails of the run's pooled samples, as measured.
    /// Shown, not gated.
    pub chunk_tail: Option<Tail>,
    pub final_tail: Option<Tail>,
    /// Each repeat's throughput and factor, and what each tail really is.
    pub notes: Vec<String>,
}

pub fn reduce(e2e: &E2e) -> Reduced {
    let raw = figures(&e2e.repeats, |_| 1.0);
    let calibrated = figures(&e2e.repeats, |r| r.calibration.unwrap_or(1.0));
    let list = |values: Vec<String>| values.join(" ");
    let mut notes = vec![format!(
        "frames_per_s of each of {} repeats in time order, as measured: {}",
        e2e.repeats.len(),
        list(
            e2e.repeats
                .iter()
                .map(|r| format!("{:.0}", r.frames as f64 / r.wall_s))
                .collect()
        )
    )];
    let factors: Vec<f64> = e2e.repeats.iter().filter_map(|r| r.calibration).collect();
    if !factors.is_empty() {
        notes.push(format!(
            "calibration factor of each repeat (the box's speed against the yardstick's nominal; median {:.4}): {}",
            median(&factors),
            list(factors.iter().map(|k| format!("{k:.3}")).collect())
        ));
    }
    let mut pooled_tail = |name: &str, of: &dyn Fn(&Repeat) -> &Vec<f64>| {
        let pooled: Vec<f64> = e2e
            .repeats
            .iter()
            .flat_map(|r| of(r).iter().copied())
            .collect();
        if pooled.is_empty() {
            return None;
        }
        let t = tail(&pooled, 99.0);
        notes.push(format!(
            "{name} latency as measured, over {} pooled samples: p50 {:.6} ms, p90 {:.6} ms, p{:.2} {:.6} ms, max {:.6} ms",
            t.samples,
            median(&pooled),
            tail(&pooled, 90.0).value,
            t.percentile,
            t.value,
            pooled.iter().copied().fold(0.0, f64::max)
        ));
        Some(t)
    };
    let chunk_tail = pooled_tail("chunk", &|r| &r.chunk_ms);
    let final_tail = pooled_tail("final", &|r| &r.final_ms);
    Reduced {
        calibrated,
        raw,
        chunk_tail,
        final_tail,
        notes,
    }
}

/// One pass of the same inputs through each layer's public functions.
#[derive(Debug, Default)]
pub struct Replayed {
    pub sessions: u64,
    pub failed: u64,
    /// Wall seconds of the measured pass (warm-up excluded).
    pub wall_s: f64,
    pub lattice_nodes: u64,
    pub lattice_arcs: u64,
    /// Seconds spent pushing chunks and taking partials (streaming only).
    pub push_s: f64,
    /// Client-to-server bytes through the wire codec.
    pub wire_bytes: u64,
}

/// A named workload: how its inputs are drawn, how the program is set
/// up for it, how it is measured end to end, and how it is replayed.
pub trait Workload {
    const NAME: &'static str;
    /// What `setup` leaves running.
    type Ready;

    /// The model set, how many utterances a run draws and how many words
    /// each has. A traced run draws the (smaller) replay set.
    fn shape(smoke: bool, traced: bool) -> (api::Task, usize, usize);

    /// The minted biasing user input `i` is decoded for, if any.
    fn bias_of(_input: usize) -> Option<usize> {
        None
    }

    /// From the bundle path on disk to ready: open, bind, validate, and
    /// start whatever serves. This is what `setup_s` times.
    fn setup(inputs: &Inputs) -> Self::Ready;

    fn models(ready: &Self::Ready) -> &api::Models;

    fn teardown(ready: Self::Ready);

    /// The measuring run. Does its own (untimed) setup and teardown.
    fn e2e(inputs: &Inputs, refs: &[DecodeResult], budget: Budget) -> E2e;

    /// A warm-up pass, then one measured pass recorded into `t` and
    /// counted into `probe`.
    fn replay(
        inputs: &Inputs,
        refs: &[DecodeResult],
        probe: &mut Probe,
        t: &mut Tracer,
    ) -> Replayed;

    /// Seconds a warm pass spends pushing chunks with the expansion tape
    /// off, for workloads that record one: against `Replayed::push_s`
    /// this is `decoder.tape_overhead_ratio`.
    fn untaped_push_s(_inputs: &Inputs) -> Option<f64> {
        None
    }

    /// Passes the traced run's own end-to-end reference makes, given
    /// the seconds it may spend and what one replay pass took.
    fn e2e_passes(seconds: f64, _inputs: &Inputs, replay_wall_s: f64) -> usize {
        ((seconds / replay_wall_s.max(1e-3)) as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repeat(frames: u64, wall_s: f64, chunk_ms: Vec<f64>) -> Repeat {
        Repeat {
            frames,
            wall_s,
            cpu_s: wall_s,
            final_ms: chunk_ms.iter().map(|c| c * 10.0).collect(),
            chunk_ms,
            ..Repeat::default()
        }
    }

    fn run(repeats: Vec<Repeat>) -> E2e {
        E2e {
            repeats,
            passes: 1.0,
            run_cpu_s: 1.0,
            attempted: 1,
            failed: 0,
            serve: None,
            invalid: Vec::new(),
        }
    }

    #[test]
    fn a_run_reports_the_median_of_its_repeats() {
        // Eight repeats of 1000 frames; one caught a stall. Latencies
        // follow their repeat's speed.
        let walls = [1.4, 1.0, 1.5, 1.3, 9.0, 1.0, 1.4, 1.5];
        let e2e = run(walls
            .iter()
            .map(|&w| repeat(1000, w, vec![w; 30]))
            .collect());
        let r = reduce(&e2e);
        assert_eq!(r.raw.frames_per_s, 1000.0 / 1.4);
        assert_eq!(
            r.raw.cpu_ms_per_audio_s,
            1.4 * 1e3 / (1000.0 * api::FRAME_SECONDS)
        );
        assert_eq!(
            (r.raw.chunk_p50_ms, r.raw.final_p50_ms),
            (Some(1.4), Some(14.0))
        );
        // Nothing was calibrated, so both sets of figures agree.
        assert_eq!(r.calibrated.frames_per_s, r.raw.frames_per_s);
        // The tail is over all 240 pooled samples, stall included.
        let tail = r.chunk_tail.unwrap();
        assert_eq!(
            (tail.samples, tail.percentile, tail.value),
            (240, 100.0 * 230.0 / 240.0, 9.0)
        );
    }

    #[test]
    fn every_repeat_counts_alike_however_many_samples_it_holds() {
        // A window draining a backlog completes more sessions than a
        // quiet one; pooled, it would outvote them.
        let e2e = run(vec![
            repeat(500, 1.0, vec![0.4; 10]),
            repeat(500, 1.0, vec![40.0; 200]),
            repeat(500, 1.0, vec![0.5; 10]),
            repeat(500, 1.0, Vec::new()),
        ]);
        let r = reduce(&e2e);
        assert_eq!(r.raw.chunk_p50_ms, Some(0.5));
        assert_eq!(r.raw.final_p50_ms, Some(5.0));
    }

    #[test]
    fn calibration_cancels_a_slow_spell() {
        // The same work, but the box ran the second half of the run at
        // half speed, and the yardstick saw it.
        let mut repeats: Vec<Repeat> = (0..8).map(|_| repeat(1000, 1.0, vec![2.0; 30])).collect();
        for r in &mut repeats[..4] {
            r.calibration = Some(1.0);
        }
        for r in &mut repeats[4..] {
            r.wall_s = 2.0;
            r.cpu_s = 2.0;
            r.chunk_ms = vec![4.0; 30];
            r.final_ms = vec![40.0; 30];
            r.calibration = Some(0.5);
        }
        let r = reduce(&run(repeats));
        assert_eq!(r.calibrated.frames_per_s, 1000.0);
        assert_eq!(r.calibrated.cpu_ms_per_audio_s, 100.0);
        assert_eq!(r.calibrated.chunk_p50_ms, Some(2.0));
        assert_eq!(r.calibrated.final_p50_ms, Some(20.0));
        // As measured, the median sits between the two speeds.
        assert_eq!(r.raw.frames_per_s, 750.0);
    }

    #[test]
    fn the_widest_frontier_warms_up_first() {
        let oracle = |max_active: usize| DecodeResult {
            words: Vec::new(),
            word_frames: Vec::new(),
            cost: 0.0,
            stats: api::DecodeStats {
                max_active,
                ..Default::default()
            },
        };
        let refs = [oracle(900), oracle(2100), oracle(40), oracle(2100)];
        assert_eq!(widest_first(&refs), vec![1, 3, 0, 2]);
    }

    #[test]
    fn the_gate_compares_words_and_cost_bits() {
        let oracle = |words: Vec<u32>, cost: f32| DecodeResult {
            word_frames: vec![0; words.len()],
            words,
            cost,
            stats: Default::default(),
        };
        let refs = vec![oracle(vec![3, 1, 4], 1.5), oracle(vec![], f32::INFINITY)];
        let mut c = Checker::new(&refs);
        c.session(0, &[3, 1, 4], 1.5, true);
        c.session(1, &[], f32::INFINITY, true);
        assert_eq!((c.attempted, c.failed), (2, 0));
        c.session(0, &[3, 1], 1.5, true);
        c.session(0, &[3, 1, 4], f32::from_bits(1.5f32.to_bits() + 1), true);
        c.session(0, &[3, 1, 4], 1.5, false);
        c.lost();
        assert_eq!((c.attempted, c.failed), (6, 4));
    }
}
