//! Utterance-parallel batch decoding.
//!
//! Utterances are independent searches, so a batch parallelizes
//! trivially: a fixed pool of scoped threads ([`std::thread::scope`])
//! pulls utterance indices from one atomic counter, each worker
//! decoding into its own [`DecodeScratch`]. Results land in
//! utterance-order slots, so the output is a plain `Vec` in input
//! order regardless of which worker ran what when.
//!
//! **Determinism.** Decoding is bit-identical for every worker count:
//! each utterance's search depends only on its own scratch, and scratch
//! reuse is itself bit-identical (see [`DecodeScratch`]). The only
//! thing the pool changes is wall time — which is exactly what
//! [`PoolTelemetry`] reports.
//!
//! The accelerator simulator is *not* parallel-safe (its cache and
//! DRAM state is cumulative across the batch), so simulated runs
//! record per-utterance traces in parallel and replay them serially in
//! utterance order — see [`decode_batch_recorded`] and
//! `experiments::run_unfold_jobs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use unfold_am::Utterance;
use unfold_decoder::{DecodeScratch, TraceRecorder};
use unfold_obs::PoolTelemetry;

/// Decodes `utterances` with up to `jobs` workers (0 and 1 both mean
/// serial), returning the per-utterance results in input order plus
/// the pool's occupancy telemetry.
///
/// The pool is clamped to the batch size: `jobs` beyond
/// `utterances.len()` never spawn idle workers, so
/// [`PoolTelemetry::occupancy`] is not diluted by threads that pull
/// zero items (a single utterance under any `jobs` reports one worker
/// at occupancy 1.0).
///
/// `decode_one` receives the utterance index, the utterance, and the
/// calling worker's private scratch; it must not touch shared mutable
/// state (the `Sync` bound enforces the usual cases).
pub fn decode_batch<R, F>(
    utterances: &[Utterance],
    jobs: usize,
    decode_one: F,
) -> (Vec<R>, PoolTelemetry)
where
    R: Send,
    F: Fn(usize, &Utterance, &mut DecodeScratch) -> R + Sync,
{
    let started = Instant::now();
    let workers = jobs.max(1).min(utterances.len().max(1));
    if workers <= 1 {
        let mut scratch = DecodeScratch::new();
        let mut results = Vec::with_capacity(utterances.len());
        for (i, utt) in utterances.iter().enumerate() {
            results.push(decode_one(i, utt, &mut scratch));
        }
        let wall = started.elapsed().as_nanos() as u64;
        return (
            results,
            PoolTelemetry {
                workers: 1,
                items: utterances.len(),
                per_worker_items: vec![utterances.len()],
                per_worker_busy_ns: vec![wall],
                wall_ns: wall,
            },
        );
    }

    let next = AtomicUsize::new(0);
    let per_worker: Vec<(Vec<(usize, R)>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let t0 = Instant::now();
                    let mut scratch = DecodeScratch::new();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= utterances.len() {
                            break;
                        }
                        out.push((i, decode_one(i, &utterances[i], &mut scratch)));
                    }
                    (out, t0.elapsed().as_nanos() as u64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batch worker panicked"))
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..utterances.len()).map(|_| None).collect();
    let mut per_worker_items = Vec::with_capacity(workers);
    let mut per_worker_busy_ns = Vec::with_capacity(workers);
    for (items, busy) in per_worker {
        per_worker_items.push(items.len());
        per_worker_busy_ns.push(busy);
        for (i, r) in items {
            slots[i] = Some(r);
        }
    }
    let results = slots
        .into_iter()
        .map(|r| r.expect("every utterance decoded exactly once"))
        .collect();
    (
        results,
        PoolTelemetry {
            workers,
            items: utterances.len(),
            per_worker_items,
            per_worker_busy_ns,
            wall_ns: started.elapsed().as_nanos() as u64,
        },
    )
}

/// [`decode_batch`] variant that also captures each utterance's memory
/// trace in a private [`TraceRecorder`], for serial replay into a
/// stateful simulator afterwards.
pub fn decode_batch_recorded<R, F>(
    utterances: &[Utterance],
    jobs: usize,
    decode_one: F,
) -> (Vec<(R, TraceRecorder)>, PoolTelemetry)
where
    R: Send,
    F: Fn(usize, &Utterance, &mut DecodeScratch, &mut TraceRecorder) -> R + Sync,
{
    decode_batch(utterances, jobs, |i, utt, scratch| {
        let mut rec = TraceRecorder::new();
        let res = decode_one(i, utt, scratch, &mut rec);
        (res, rec)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::System;
    use crate::task::TaskSpec;
    use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder};

    fn setup() -> (System, Vec<Utterance>) {
        let s = System::build(&TaskSpec::tiny());
        let utts = s.test_utterances(5);
        (s, utts)
    }

    #[test]
    fn every_jobs_count_is_bit_identical_to_serial() {
        let (s, utts) = setup();
        let decoder = OtfDecoder::new(DecodeConfig::default());
        let decode = |_i: usize, utt: &Utterance, scratch: &mut DecodeScratch| {
            decoder.decode_with(&s.am_comp, &s.lm_comp, &utt.scores, scratch, &mut NullSink)
        };
        let (serial, pool1) = decode_batch(&utts, 1, decode);
        assert_eq!(pool1.workers, 1);
        for jobs in [2, 3, 8] {
            let (par, pool) = decode_batch(&utts, jobs, decode);
            assert_eq!(pool.items, utts.len());
            assert_eq!(pool.per_worker_items.iter().sum::<usize>(), utts.len());
            for (a, b) in serial.iter().zip(&par) {
                assert_eq!(a.words, b.words, "jobs={jobs}");
                assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "jobs={jobs}");
                assert_eq!(a.stats, b.stats, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn pool_never_spawns_more_workers_than_items() {
        let (s, utts) = setup();
        let decoder = OtfDecoder::new(DecodeConfig::default());
        let two = &utts[..2];
        let (results, pool) = decode_batch(two, 16, |_i, utt, scratch| {
            decoder.decode_with(&s.am_comp, &s.lm_comp, &utt.scores, scratch, &mut NullSink)
        });
        assert_eq!(results.len(), 2);
        assert_eq!(pool.workers, 2);
        assert!(pool.occupancy() > 0.0);
    }

    #[test]
    fn excess_jobs_on_one_utterance_keep_full_occupancy() {
        // jobs ≫ utterances must not dilute occupancy with idle
        // workers: one utterance collapses to the serial path, whose
        // single worker is busy for the whole wall time — occupancy is
        // exactly 1.0, not just positive.
        let (s, utts) = setup();
        let decoder = OtfDecoder::new(DecodeConfig::default());
        let one = &utts[..1];
        let (results, pool) = decode_batch(one, 8, |_i, utt, scratch| {
            decoder.decode_with(&s.am_comp, &s.lm_comp, &utt.scores, scratch, &mut NullSink)
        });
        assert_eq!(results.len(), 1);
        assert_eq!(pool.workers, 1, "pool must clamp 8 jobs to 1 utterance");
        assert_eq!(pool.per_worker_items, vec![1]);
        assert_eq!(pool.occupancy(), 1.0, "no idle workers to dilute occupancy");
    }

    #[test]
    fn recorded_batch_replays_to_identical_traces() {
        let (s, utts) = setup();
        let decoder = OtfDecoder::new(DecodeConfig::default());
        let record =
            |_i: usize, utt: &Utterance, scratch: &mut DecodeScratch, rec: &mut TraceRecorder| {
                decoder.decode_with(&s.am_comp, &s.lm_comp, &utt.scores, scratch, rec)
            };
        let (serial, _) = decode_batch_recorded(&utts, 1, record);
        let (par, _) = decode_batch_recorded(&utts, 4, record);
        for ((ra, ta), (rb, tb)) in serial.iter().zip(&par) {
            assert_eq!(ra.words, rb.words);
            assert_eq!(ta.events(), tb.events(), "traces must be bit-identical");
        }
    }
}
