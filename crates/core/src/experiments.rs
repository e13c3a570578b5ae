//! One-call experiment runners: decode a batch of utterances on a
//! system configuration, simulate the hardware, and score the output.
//!
//! Three configurations mirror the paper's §5 comparisons:
//!
//! * [`run_unfold`] — on-the-fly decoder over the *compressed* AM/LM,
//!   simulated on the UNFOLD accelerator (Table 3 left),
//! * [`run_baseline_on`] — fully-composed decoder over the offline
//!   graph, simulated on the Reza et al. accelerator (Table 3 right),
//! * [`run_gpu`] — the Tegra X1 analytic model fed with the software
//!   decoder's statistics.

use unfold_am::Utterance;
use unfold_decoder::{
    wer, DecodeConfig, DecodeResult, DecodeScratch, DecodeStats, FullyComposedDecoder, MetricsSink,
    NullSink, OtfDecoder, TeeSink, TraceSink, WerReport,
};
use unfold_obs::{CacheRates, PoolTelemetry};
use unfold_sim::{Accelerator, AcceleratorConfig, FrameCacheSnapshot, GpuModel, SimReport};

use crate::batch::decode_batch_recorded;
use crate::system::System;

/// Outcome of running a batch on an accelerated configuration.
#[derive(Debug, Clone)]
pub struct SystemRun {
    /// Accuracy over the batch.
    pub wer: WerReport,
    /// Hardware simulation report.
    pub sim: SimReport,
    /// Aggregated decoder statistics.
    pub stats: DecodeStats,
    /// Audio seconds decoded.
    pub audio_seconds: f64,
    /// Per-utterance decode time on the accelerator, seconds.
    pub per_utterance_seconds: Vec<f64>,
    /// Per-frame cache/OLT hit rates across the whole batch, in decode
    /// order (one entry per frame).
    pub frame_cache: Vec<FrameCacheSnapshot>,
    /// How the decode work spread across the worker pool (one worker
    /// for serial runs).
    pub pool: PoolTelemetry,
}

impl SystemRun {
    /// Mean per-utterance latency in milliseconds (Table 5).
    pub fn avg_latency_ms(&self) -> f64 {
        let n = self.per_utterance_seconds.len().max(1) as f64;
        self.per_utterance_seconds.iter().sum::<f64>() / n * 1e3
    }

    /// Worst per-utterance latency in milliseconds (Table 5).
    pub fn max_latency_ms(&self) -> f64 {
        self.per_utterance_seconds
            .iter()
            .copied()
            .fold(0.0, f64::max)
            * 1e3
    }
}

/// Aggregates per-utterance decode stats into one batch total.
fn merge_stats(total: &mut DecodeStats, one: &DecodeStats) {
    total.frames += one.frames;
    total.tokens_created += one.tokens_created;
    total.tokens_pruned += one.tokens_pruned;
    total.max_active = total.max_active.max(one.max_active);
    total.total_active += one.total_active;
    total.lm_lookups += one.lm_lookups;
    total.lm_fetches += one.lm_fetches;
    total.backoff_hops += one.backoff_hops;
    total.preemptive_prunes += one.preemptive_prunes;
    total.epsilon_expansions += one.epsilon_expansions;
    total.olt_probes += one.olt_probes;
    total.olt_hits += one.olt_hits;
    total.olt_installs += one.olt_installs;
    total.olt_evictions += one.olt_evictions;
}

/// Copies the accelerator's per-frame cache rates onto the telemetry
/// `metrics` recorded during the same run. Frames are matched by the
/// sink's global sequence number, so `metrics` must have been fresh
/// when the run started.
fn attach_cache_rates(metrics: &mut MetricsSink, snaps: &[FrameCacheSnapshot]) {
    for ft in metrics.frames_mut().iter_mut() {
        if let Some(s) = snaps.get(ft.seq as usize) {
            ft.cache = Some(CacheRates {
                state: s.state,
                am_arc: s.am_arc,
                lm_arc: s.lm_arc,
                token: s.token,
                olt: s.olt,
            });
        }
    }
}

/// Shared batch loop: decodes every utterance into the accelerator
/// (optionally teeing the trace into `metrics`), then builds the run
/// report. Observability must not steer the search, so the decode
/// closure receives whichever sink composition is active.
///
/// With `jobs > 1` the decode itself runs on the utterance-parallel
/// pool ([`crate::batch`]): each worker records its utterances' traces
/// privately, and the traces replay into the accelerator serially in
/// utterance order afterwards. The simulator's cache and DRAM state is
/// cumulative across the batch, so only that replay order feeds it the
/// byte-for-byte event stream the serial path produces — which is what
/// keeps every report field bit-identical for any `jobs`.
fn run_accelerated<F>(
    utterances: &[Utterance],
    accel_config: AcceleratorConfig,
    mut metrics: Option<&mut MetricsSink>,
    jobs: usize,
    decode_one: F,
) -> SystemRun
where
    F: Fn(&Utterance, &mut DecodeScratch, &mut dyn TraceSink) -> DecodeResult + Sync,
{
    assert!(!utterances.is_empty(), "run_accelerated: no utterances");
    let mut accel = Accelerator::new(accel_config);
    let mut total_wer = WerReport::default();
    let mut stats = DecodeStats::default();
    let mut audio = 0.0;
    let mut per_utt = Vec::with_capacity(utterances.len());
    let freq_hz = accel.config().frequency_mhz as f64 * 1e6;
    let pool;
    if jobs <= 1 {
        let started = std::time::Instant::now();
        let mut scratch = DecodeScratch::new();
        for utt in utterances {
            let c0 = accel.cycles();
            let res = match metrics {
                Some(ref mut m) => {
                    let mut tee = TeeSink::new(vec![&mut accel, &mut **m]);
                    decode_one(utt, &mut scratch, &mut tee)
                }
                None => decode_one(utt, &mut scratch, &mut accel),
            };
            per_utt.push((accel.cycles() - c0) as f64 / freq_hz);
            total_wer.accumulate(wer(&utt.words, &res.words));
            merge_stats(&mut stats, &res.stats);
            audio += utt.audio_seconds();
        }
        let wall = started.elapsed().as_nanos() as u64;
        pool = PoolTelemetry {
            workers: 1,
            items: utterances.len(),
            per_worker_items: vec![utterances.len()],
            per_worker_busy_ns: vec![wall],
            wall_ns: wall,
        };
    } else {
        let (decoded, pool_t) = decode_batch_recorded(utterances, jobs, |_i, utt, scratch, rec| {
            decode_one(utt, scratch, rec)
        });
        pool = pool_t;
        for (utt, (res, trace)) in utterances.iter().zip(&decoded) {
            let c0 = accel.cycles();
            match metrics {
                Some(ref mut m) => {
                    let mut tee = TeeSink::new(vec![&mut accel, &mut **m]);
                    trace.replay(&mut tee);
                }
                None => trace.replay(&mut accel),
            }
            per_utt.push((accel.cycles() - c0) as f64 / freq_hz);
            total_wer.accumulate(wer(&utt.words, &res.words));
            merge_stats(&mut stats, &res.stats);
            audio += utt.audio_seconds();
        }
    }
    let sim = accel.finish(audio);
    let frame_cache = accel.frame_snapshots().to_vec();
    if let Some(m) = metrics {
        attach_cache_rates(m, &frame_cache);
    }
    SystemRun {
        wer: total_wer,
        sim,
        stats,
        audio_seconds: audio,
        per_utterance_seconds: per_utt,
        frame_cache,
        pool,
    }
}

/// Runs UNFOLD: on-the-fly decode of the compressed models, simulated
/// on the UNFOLD accelerator configuration.
pub fn run_unfold(system: &System, utterances: &[Utterance]) -> SystemRun {
    run_unfold_jobs(system, utterances, 1)
}

/// [`run_unfold`] on the utterance-parallel pool: decode with up to
/// `jobs` workers, then replay the recorded traces into the simulator
/// serially. Bit-identical to `jobs = 1` — only wall time and
/// [`SystemRun::pool`] change.
pub fn run_unfold_jobs(system: &System, utterances: &[Utterance], jobs: usize) -> SystemRun {
    let (accel, decode) = (AcceleratorConfig::unfold(), DecodeConfig::default());
    unfold_run(system, utterances, accel, decode, None, jobs)
}

/// [`run_unfold`] with explicit accelerator/decoder configurations
/// (used by the cache/OLT sweeps and ablations).
pub fn run_unfold_configured(
    system: &System,
    utterances: &[Utterance],
    accel_config: AcceleratorConfig,
    decode_config: DecodeConfig,
) -> SystemRun {
    unfold_run(system, utterances, accel_config, decode_config, None, 1)
}

/// [`run_unfold_jobs`] with decode-time telemetry: every trace event is
/// teed into `metrics` alongside the accelerator, and after the batch
/// each recorded frame is annotated with the accelerator's cache/OLT
/// hit rates for that frame. Pass a freshly-created sink. Telemetry is
/// fed during the serial replay, so it too is identical for any `jobs`
/// (except host wall-clock fields).
pub fn run_unfold_traced_jobs(
    system: &System,
    utterances: &[Utterance],
    metrics: &mut MetricsSink,
    jobs: usize,
) -> SystemRun {
    let (accel, decode) = (AcceleratorConfig::unfold(), DecodeConfig::default());
    unfold_run(system, utterances, accel, decode, Some(metrics), jobs)
}

/// The on-the-fly decode behind every `run_unfold*` entry point.
fn unfold_run(
    system: &System,
    utterances: &[Utterance],
    accel_config: AcceleratorConfig,
    decode_config: DecodeConfig,
    metrics: Option<&mut MetricsSink>,
    jobs: usize,
) -> SystemRun {
    let decoder = OtfDecoder::new(decode_config);
    run_accelerated(
        utterances,
        accel_config,
        metrics,
        jobs,
        |utt, scratch, sink| {
            decoder.decode_with(&system.am_comp, &system.lm_comp, &utt.scores, scratch, sink)
        },
    )
}

/// Runs the Reza et al. baseline: fully-composed decode of a pre-built
/// composed graph ([`System::composed`]), simulated on the baseline
/// accelerator.
pub fn run_baseline_on(
    system: &System,
    composed: &unfold_wfst::Wfst,
    utterances: &[Utterance],
) -> SystemRun {
    let (accel, decode) = (AcceleratorConfig::reza(), DecodeConfig::default());
    run_baseline_configured_jobs(system, composed, utterances, accel, decode, 1)
}

/// [`run_baseline_on`] with explicit accelerator/decoder configurations
/// and worker count (the fully-composed decoder keeps its own working
/// memory, so workers ignore the pool scratch).
pub fn run_baseline_configured_jobs(
    _system: &System,
    composed: &unfold_wfst::Wfst,
    utterances: &[Utterance],
    accel_config: AcceleratorConfig,
    decode_config: DecodeConfig,
    jobs: usize,
) -> SystemRun {
    baseline_run(
        composed,
        utterances,
        accel_config,
        decode_config,
        None,
        jobs,
    )
}

/// [`run_baseline_on`] with decode-time telemetry (see
/// [`run_unfold_traced_jobs`]) and an explicit worker count.
pub fn run_baseline_traced_jobs(
    _system: &System,
    composed: &unfold_wfst::Wfst,
    utterances: &[Utterance],
    metrics: &mut MetricsSink,
    jobs: usize,
) -> SystemRun {
    let (accel, decode) = (AcceleratorConfig::reza(), DecodeConfig::default());
    baseline_run(composed, utterances, accel, decode, Some(metrics), jobs)
}

/// The fully-composed decode behind every `run_baseline*` entry point.
fn baseline_run(
    composed: &unfold_wfst::Wfst,
    utterances: &[Utterance],
    accel_config: AcceleratorConfig,
    decode_config: DecodeConfig,
    metrics: Option<&mut MetricsSink>,
    jobs: usize,
) -> SystemRun {
    let decoder = FullyComposedDecoder::new(decode_config);
    run_accelerated(
        utterances,
        accel_config,
        metrics,
        jobs,
        |utt, _scratch, sink| decoder.decode(composed, &utt.scores, sink),
    )
}

/// Outcome of the GPU (Tegra X1) software run.
#[derive(Debug, Clone)]
pub struct GpuRun {
    /// Viterbi-search time, seconds.
    pub search_seconds: f64,
    /// Viterbi-search energy, mJ.
    pub search_energy_mj: f64,
    /// Acoustic-scoring time, seconds.
    pub scoring_seconds: f64,
    /// Acoustic-scoring energy, mJ.
    pub scoring_energy_mj: f64,
    /// Audio seconds decoded.
    pub audio_seconds: f64,
    /// Per-utterance search latency, seconds.
    pub per_utterance_seconds: Vec<f64>,
}

impl GpuRun {
    /// GPU-only end-to-end decode time (scoring + search), seconds.
    pub fn total_seconds(&self) -> f64 {
        self.search_seconds + self.scoring_seconds
    }

    /// Fraction of GPU time spent in the Viterbi search (Figure 1).
    pub fn viterbi_fraction(&self) -> f64 {
        self.search_seconds / self.total_seconds()
    }
}

/// Runs the software decoder and prices it with the Tegra X1 model. The
/// GPU model is analytic (priced from per-utterance stats), so no
/// simulator sees the decode.
pub fn run_gpu(system: &System, utterances: &[Utterance]) -> GpuRun {
    assert!(!utterances.is_empty(), "run_gpu: no utterances");
    let gpu = GpuModel::default();
    let decoder = OtfDecoder::new(DecodeConfig::default());
    let mut scratch = DecodeScratch::new();
    let mut search_s = 0.0;
    let mut search_mj = 0.0;
    let mut frames = 0usize;
    let mut audio = 0.0;
    let mut per_utt = Vec::with_capacity(utterances.len());
    for utt in utterances {
        let res = decoder.decode_with(
            &system.am.fst,
            &system.lm_fst,
            &utt.scores,
            &mut scratch,
            &mut NullSink,
        );
        let t = gpu.viterbi_seconds(&res.stats);
        per_utt.push(t);
        search_s += t;
        search_mj += gpu.viterbi_energy_mj(&res.stats);
        frames += utt.scores.num_frames();
        audio += utt.audio_seconds();
    }
    GpuRun {
        search_seconds: search_s,
        search_energy_mj: search_mj,
        scoring_seconds: gpu.scoring_seconds(&system.spec.backend, frames),
        scoring_energy_mj: gpu.scoring_energy_mj(&system.spec.backend, frames),
        audio_seconds: audio,
        per_utterance_seconds: per_utt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    fn setup() -> (System, Vec<Utterance>) {
        let s = System::build(&TaskSpec::tiny());
        let utts = s.test_utterances(3);
        (s, utts)
    }

    #[test]
    fn unfold_run_produces_sane_report() {
        let (s, utts) = setup();
        let run = run_unfold(&s, &utts);
        assert!(run.wer.ref_words > 0);
        assert!(run.sim.cycles > 0);
        assert!(
            run.sim.times_real_time() > 1.0,
            "accelerator must beat real time"
        );
        assert!(run.stats.lm_lookups > 0);
        assert_eq!(run.per_utterance_seconds.len(), 3);
        assert!(run.max_latency_ms() >= run.avg_latency_ms());
    }

    #[test]
    fn traced_run_matches_untraced_and_carries_cache_rates() {
        let (s, utts) = setup();
        let plain = run_unfold(&s, &utts);
        let mut metrics = MetricsSink::new();
        let traced = run_unfold_traced_jobs(&s, &utts, &mut metrics, 1);

        // Observability listens, it never steers: identical outcomes.
        assert_eq!(plain.wer, traced.wer);
        assert_eq!(plain.stats, traced.stats);
        assert_eq!(plain.sim.cycles, traced.sim.cycles);

        // One cache snapshot per decoded frame, attached to telemetry.
        assert_eq!(traced.frame_cache.len(), traced.stats.frames);
        assert_eq!(metrics.frames().total_seen() as usize, traced.stats.frames);
        for ft in metrics.frames().iter() {
            let c = ft.cache.expect("every frame gets cache rates");
            assert!((0.0..=1.0).contains(&c.state));
            assert!((0.0..=1.0).contains(&c.olt));
        }
        // Stage spans covered the run.
        assert!(metrics.collector().stages.total() > std::time::Duration::ZERO);
    }

    #[test]
    fn parallel_run_is_bit_identical_to_serial() {
        let (s, utts) = setup();
        let serial = run_unfold(&s, &utts);
        for jobs in [2, 4] {
            let par = run_unfold_jobs(&s, &utts, jobs);
            assert_eq!(serial.wer, par.wer, "jobs={jobs}");
            assert_eq!(serial.stats, par.stats, "jobs={jobs}");
            assert_eq!(serial.sim.cycles, par.sim.cycles, "jobs={jobs}");
            assert_eq!(
                serial.per_utterance_seconds, par.per_utterance_seconds,
                "jobs={jobs}"
            );
            assert_eq!(serial.frame_cache, par.frame_cache, "jobs={jobs}");
            assert_eq!(par.pool.workers, jobs.min(utts.len()));
            assert_eq!(par.pool.items, utts.len());
        }
    }

    #[test]
    fn baseline_and_unfold_agree_on_words_mostly() {
        // The two systems search equivalent graphs; on a quiet task
        // their word outputs should be nearly identical.
        let (s, utts) = setup();
        let a = run_unfold(&s, &utts);
        let b = run_baseline_on(&s, &s.composed(), &utts);
        let delta = (a.wer.percent() - b.wer.percent()).abs();
        assert!(delta < 10.0, "WER divergence {delta} too large");
    }

    #[test]
    fn unfold_moves_less_memory_than_baseline() {
        // The paper's core claim: smaller datasets → fewer cache misses
        // → less DRAM traffic (68% fewer accesses, Figure 11).
        let (s, utts) = setup();
        let a = run_unfold(&s, &utts);
        let b = run_baseline_on(&s, &s.composed(), &utts);
        assert!(
            a.sim.dram.total_bytes() < b.sim.dram.total_bytes(),
            "UNFOLD {} vs baseline {}",
            a.sim.dram.total_bytes(),
            b.sim.dram.total_bytes()
        );
    }

    #[test]
    fn gpu_run_is_much_slower_than_accelerators() {
        let (s, utts) = setup();
        let accel = run_unfold(&s, &utts);
        let gpu = run_gpu(&s, &utts);
        assert!(gpu.search_seconds > accel.sim.seconds * 3.0);
        assert!(
            gpu.viterbi_fraction() > 0.5,
            "Viterbi must dominate (Figure 1)"
        );
    }
}
