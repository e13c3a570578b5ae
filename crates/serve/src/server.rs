//! The threaded server: a pool of decode workers around a
//! [`ServeCore`], plus the cloneable in-process [`ServeHandle`] clients
//! drive it with.
//!
//! Workers follow the lease protocol: lock the core, claim the
//! earliest-deadline quantum, *unlock*, decode with their private
//! [`WorkScratch`] (so each worker keeps one warm software OLT for its
//! whole life), relock, return the lease. The mutex therefore guards
//! only queue surgery — decode time, which dominates, runs unlocked on
//! every worker in parallel.
//!
//! # Wakes
//!
//! Two condvars, each with a count of its waiters kept under the core
//! lock, so a notify is issued only when it has someone to wake:
//!
//! * `work`: idle workers park here. An ingest or finish that *arms* a
//!   session (puts it in the ready queue) wakes one parked worker. A
//!   session armed while every worker is busy needs no wake: a worker
//!   calls `lease_next` under the lock before it parks, so it finds the
//!   session then. A worker that completes a quantum leases the next
//!   one itself, so completion wakes no worker.
//! * `progress`: `wait_drained` and `wait_result` wait here. A
//!   completed or aborted quantum, or an idle eviction, wakes them all.
//!
//! Shutdown wakes both. `IDLE_POLL` bounds every park, so a lost wake
//! would cost latency, never liveness.
//!
//! # Clocks
//!
//! Workers time their own lock traffic into the core's registry, so a
//! `stats` scrape shows it (nanoseconds, log₂ histograms):
//! `serve.lock.complete_wait_ns` and `serve.lock.complete_hold_ns` for
//! returning a quantum, `serve.lock.lease_hold_ns` for the idle check
//! and `lease_next`, and `serve.wake_to_run_ns` from a `work` notify
//! to the woken worker holding the lock. `serve.notify_work` and
//! `serve.notify_progress` count the notifies issued.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use unfold_decoder::{
    AcousticScorer, AmSource, DecodeResult, FrameInput, LmSource, NullSink, WorkScratch,
};
use unfold_lm::WordId;
use unfold_obs::LogHistogram;

use crate::sched::{ServeCore, ServeStats};
use crate::session::{SessionId, SessionView};
use crate::{RejectReason, ServeConfig, ServeError};

/// How long an idle worker parks before re-checking for work and
/// running the idle-eviction check. Purely a liveness bound — a worker
/// is woken whenever a session is armed while it is parked.
const IDLE_POLL: Duration = Duration::from_millis(20);

/// Counter of notifies issued on the `work` condvar.
const NOTIFY_WORK: &str = "serve.notify_work";
/// Counter of notifies issued on the `progress` condvar.
const NOTIFY_PROGRESS: &str = "serve.notify_progress";

struct Shared<A: AmSource + ?Sized, L: LmSource + ?Sized> {
    core: Mutex<ServeCore<A, L>>,
    /// Idle workers park here (see the module docs).
    work: Condvar,
    /// Result and drain waiters wait here (see the module docs).
    progress: Condvar,
    /// Workers parked on `work`, and callers waiting on `progress`.
    /// Both change only under the core lock, so a notifier that reads
    /// them under the lock sees every waiter that has released it.
    parked_workers: AtomicUsize,
    progress_waiters: AtomicUsize,
    /// [`Shared::now_ns`] at the latest `work` notify (wake-to-run's
    /// start).
    work_notified_at: AtomicU64,
    shutdown: AtomicBool,
    epoch: Instant,
    /// Microseconds workers have spent decoding (unlocked), and the
    /// worker count — together they yield the
    /// `serve.stage_search_occupancy` gauge at scrape time.
    search_busy_us: AtomicU64,
    search_workers: usize,
}

impl<A: AmSource + ?Sized, L: LmSource + ?Sized> Shared<A, L> {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Worker occupancy: decode busy-time per worker thread over wall
    /// time since start, in `[0, 1]`.
    fn search_occupancy(&self) -> f64 {
        let elapsed_us = self.epoch.elapsed().as_micros().max(1) as f64;
        self.search_busy_us.load(Ordering::Relaxed) as f64
            / (elapsed_us * self.search_workers as f64)
    }

    /// Releases `core` after a client call, waking one parked worker if
    /// the call armed a session (`armed_before` is
    /// [`ServeCore::armed_total`] from before it). The decision is taken
    /// under the lock and the notify issued after it is released.
    fn release_and_wake(&self, mut core: MutexGuard<'_, ServeCore<A, L>>, armed_before: u64) {
        let wake =
            core.armed_total() != armed_before && self.parked_workers.load(Ordering::Relaxed) > 0;
        if wake {
            core.count(NOTIFY_WORK, 1);
        }
        drop(core);
        if wake {
            self.work_notified_at
                .store(self.now_ns(), Ordering::Relaxed);
            self.work.notify_one();
        }
    }

    /// Wakes every progress waiter, if there is one; called under the
    /// lock after an event that can satisfy a waiter.
    fn wake_progress(&self, core: &mut ServeCore<A, L>) {
        if self.progress_waiters.load(Ordering::Relaxed) > 0 {
            core.count(NOTIFY_PROGRESS, 1);
            self.progress.notify_all();
        }
    }

    fn wake_all(&self) {
        self.work.notify_all();
        self.progress.notify_all();
    }
}

/// The workers' lock and wake clocks (see the module docs), shared
/// through the core's registry.
#[derive(Clone)]
struct WorkerClocks {
    complete_wait: Arc<LogHistogram>,
    complete_hold: Arc<LogHistogram>,
    lease_hold: Arc<LogHistogram>,
    wake_to_run: Arc<LogHistogram>,
}

impl WorkerClocks {
    /// Registers the clocks and the notify counters, so they export in
    /// a fixed order from the first scrape on.
    fn register<A: AmSource + ?Sized, L: LmSource + ?Sized>(core: &mut ServeCore<A, L>) -> Self {
        let clocks = WorkerClocks {
            complete_wait: core.log_histogram("serve.lock.complete_wait_ns"),
            complete_hold: core.log_histogram("serve.lock.complete_hold_ns"),
            lease_hold: core.log_histogram("serve.lock.lease_hold_ns"),
            wake_to_run: core.log_histogram("serve.wake_to_run_ns"),
        };
        core.count(NOTIFY_WORK, 0);
        core.count(NOTIFY_PROGRESS, 0);
        clocks
    }
}

/// Waits on `cv` for at most `timeout`, counted in `waiters` while the
/// lock is released. Returns the guard and whether the wait timed out.
fn park<'a, T>(
    cv: &Condvar,
    waiters: &AtomicUsize,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
) -> (MutexGuard<'a, T>, bool) {
    waiters.fetch_add(1, Ordering::Relaxed);
    let (guard, waited) = cv.wait_timeout(guard, timeout).expect("serve lock");
    waiters.fetch_sub(1, Ordering::Relaxed);
    (guard, waited.timed_out())
}

/// Records the nanoseconds since `from` into `h`.
fn record_since(h: &LogHistogram, from: Instant) {
    h.record(from.elapsed().as_nanos() as u64);
}

/// A multi-session streaming decode server. Owns `workers` OS threads
/// for its lifetime; dropping without [`Server::shutdown`] also joins
/// them cleanly.
pub struct Server<A, L>
where
    A: AmSource + Send + Sync + 'static + ?Sized,
    L: LmSource + Send + Sync + 'static + ?Sized,
{
    shared: Arc<Shared<A, L>>,
    workers: Vec<JoinHandle<()>>,
}

impl<A, L> Server<A, L>
where
    A: AmSource + Send + Sync + 'static + ?Sized,
    L: LmSource + Send + Sync + 'static + ?Sized,
{
    /// Starts a server decoding against one shared model pair (the LM
    /// is registered under [`crate::sched::DEFAULT_LM`]).
    pub fn start(config: ServeConfig, am: Arc<A>, lm: Arc<L>) -> Self {
        Self::start_multi(config, am, vec![(crate::sched::DEFAULT_LM.to_string(), lm)])
    }

    /// Starts a server hosting one AM and several named LMs; clients
    /// pick per session with [`ServeHandle::open_with_lm`]. The first
    /// entry is the default model.
    ///
    /// # Panics
    /// When `lms` is empty or contains a duplicate name.
    pub fn start_multi(config: ServeConfig, am: Arc<A>, lms: Vec<(String, Arc<L>)>) -> Self {
        Self::start_multi_with_scorer(config, am, lms, None)
    }

    /// Like [`Server::start_multi`], with an optional acoustic scorer
    /// bound before any worker spawns (`None` = passthrough for
    /// precomputed rows; feature frames are refused).
    ///
    /// # Panics
    /// When `lms` is empty or contains a duplicate name.
    pub fn start_multi_with_scorer(
        config: ServeConfig,
        am: Arc<A>,
        lms: Vec<(String, Arc<L>)>,
        scorer: Option<Arc<dyn AcousticScorer>>,
    ) -> Self {
        let workers = config.workers.max(1);
        let olt_entries = config.olt_entries;
        let mut core = ServeCore::new_multi(config, am, lms);
        if let Some(scorer) = scorer {
            core.set_scorer(scorer);
        }
        let clocks = WorkerClocks::register(&mut core);
        let shared = Arc::new(Shared {
            core: Mutex::new(core),
            work: Condvar::new(),
            progress: Condvar::new(),
            parked_workers: AtomicUsize::new(0),
            progress_waiters: AtomicUsize::new(0),
            work_notified_at: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            epoch: Instant::now(),
            search_busy_us: AtomicU64::new(0),
            search_workers: workers,
        });
        let handles: Vec<JoinHandle<()>> = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let clocks = clocks.clone();
                std::thread::Builder::new()
                    .name(format!("unfold-serve-{i}"))
                    .spawn(move || worker_loop(&shared, olt_entries, &clocks))
                    .expect("spawn decode worker")
            })
            .collect();
        Server {
            shared,
            workers: handles,
        }
    }

    /// A cloneable client handle to this server.
    pub fn handle(&self) -> ServeHandle<A, L> {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stops the workers and joins them. In-flight quanta complete;
    /// queued-but-undecoded work is dropped.
    pub fn shutdown(mut self) {
        self.stop_workers();
    }

    fn stop_workers(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl<A, L> Drop for Server<A, L>
where
    A: AmSource + Send + Sync + 'static + ?Sized,
    L: LmSource + Send + Sync + 'static + ?Sized,
{
    fn drop(&mut self) {
        self.stop_workers();
    }
}

fn worker_loop<A, L>(shared: &Shared<A, L>, olt_entries: usize, clocks: &WorkerClocks)
where
    A: AmSource + Send + Sync + 'static + ?Sized,
    L: LmSource + Send + Sync + 'static + ?Sized,
{
    // One scratch (and one warm OLT) per worker, for its whole life.
    let mut work = WorkScratch::new();
    work.configure_olt(olt_entries);
    let mut core = shared.core.lock().expect("serve lock");
    let decode_us = core.lease_decode_us();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let now = shared.now_ms();
        let leasing = Instant::now();
        if !core.evict_idle(now).is_empty() {
            // A waiter on an evicted session learns it is gone.
            shared.wake_progress(&mut core);
        }
        let lease = core.lease_next(now);
        record_since(&clocks.lease_hold, leasing);
        match lease {
            Some(mut lease) => {
                // The lease carries its session's own LM; only the
                // shared AM comes from the core.
                let am = core.am();
                drop(core);
                // Decode unlocked. A panicking decode must not wedge
                // the session's slot (or poison the core mutex), so the
                // quantum runs under `catch_unwind`; the identifiers
                // needed to unwind the lease are captured first because
                // a panic consumes it.
                let (id, span, granted) =
                    (lease.session(), lease.span_id(), lease.num_frames() as u64);
                let started = Instant::now();
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    lease.run(&*am, &mut work, &mut NullSink);
                    lease
                }));
                let spent = started.elapsed();
                shared
                    .search_busy_us
                    .fetch_add(spent.as_micros() as u64, Ordering::Relaxed);
                let asked = Instant::now();
                core = shared.core.lock().expect("serve lock");
                record_since(&clocks.complete_wait, asked);
                let holding = Instant::now();
                match outcome {
                    Ok(lease) => {
                        decode_us.record(spent.as_micros() as u64);
                        core.complete_lease(lease, shared.now_ms());
                    }
                    // The search state unwound with the panic: release
                    // the slot and account the lost frames.
                    Err(_) => core.abort_lease(id, span, granted, shared.now_ms()),
                }
                shared.wake_progress(&mut core);
                record_since(&clocks.complete_hold, holding);
            }
            None => {
                let (guard, timed_out) =
                    park(&shared.work, &shared.parked_workers, core, IDLE_POLL);
                core = guard;
                if !timed_out && !shared.shutdown.load(Ordering::SeqCst) {
                    let notified = shared.work_notified_at.load(Ordering::Relaxed);
                    clocks
                        .wake_to_run
                        .record(shared.now_ns().saturating_sub(notified));
                }
            }
        }
    }
}

/// A cloneable client handle to a running [`Server`]: the in-process
/// API the TCP front end and tests are built on. All methods are safe
/// to call from any thread.
pub struct ServeHandle<A: AmSource + ?Sized, L: LmSource + ?Sized> {
    shared: Arc<Shared<A, L>>,
}

impl<A: AmSource + ?Sized, L: LmSource + ?Sized> Clone for ServeHandle<A, L> {
    fn clone(&self) -> Self {
        ServeHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<A: AmSource + ?Sized, L: LmSource + ?Sized> ServeHandle<A, L> {
    fn lock(&self) -> std::sync::MutexGuard<'_, ServeCore<A, L>> {
        self.shared.core.lock().expect("serve lock")
    }

    /// Milliseconds since the server started (its logical clock).
    pub fn now_ms(&self) -> u64 {
        self.shared.now_ms()
    }

    /// Opens a session (admission control applies).
    ///
    /// # Errors
    /// The [`RejectReason`] when admission is refused.
    pub fn open(&self) -> Result<SessionId, RejectReason> {
        self.lock().open(self.shared.now_ms())
    }

    /// Opens a session decoding against the named LM (`None` =
    /// default), pinned for the session's lifetime.
    ///
    /// # Errors
    /// See [`ServeCore::open_with_lm`].
    pub fn open_with_lm(&self, lm: Option<&str>) -> Result<SessionId, ServeError> {
        self.lock().open_with_lm(lm, self.shared.now_ms())
    }

    /// Opens a session decoding against the named LM with the named
    /// biasing model composed over it on the fly (`None` = unbiased).
    ///
    /// # Errors
    /// See [`ServeCore::open_with_models`].
    pub fn open_with_models(
        &self,
        lm: Option<&str>,
        bias: Option<&str>,
    ) -> Result<SessionId, ServeError> {
        self.lock().open_with_models(lm, bias, self.shared.now_ms())
    }

    /// The registered LM names, default first.
    pub fn lm_names(&self) -> Vec<String> {
        self.lock().lm_names()
    }

    /// Registers (or hot-swaps) an LM under `name` without draining any
    /// session. Returns the replaced handle, if any.
    pub fn add_lm(&self, name: &str, lm: Arc<L>) -> Option<Arc<L>> {
        self.lock().add_lm(name, lm)
    }

    /// Removes `name` from the registry. Sessions pinned to it finish
    /// undisturbed; new sessions can no longer select it.
    ///
    /// # Errors
    /// See [`ServeCore::retire_lm`].
    pub fn retire_lm(&self, name: &str) -> Result<Arc<L>, ServeError> {
        self.lock().retire_lm(name)
    }

    /// The registered biasing-model names, in registration order.
    pub fn bias_names(&self) -> Vec<String> {
        self.lock().bias_names()
    }

    /// Registers (or hot-swaps) a biasing model under `name` without
    /// draining any session. Returns the replaced handle, if any.
    pub fn add_bias(
        &self,
        name: &str,
        bias: Arc<unfold_bias::BiasingFst>,
    ) -> Option<Arc<unfold_bias::BiasingFst>> {
        self.lock().add_bias(name, bias)
    }

    /// Removes `name` from the biasing registry. Sessions pinned to it
    /// finish undisturbed; new sessions can no longer select it.
    ///
    /// # Errors
    /// See [`ServeCore::retire_bias`].
    pub fn retire_bias(&self, name: &str) -> Result<Arc<unfold_bias::BiasingFst>, ServeError> {
        self.lock().retire_bias(name)
    }

    /// Queues one [`FrameInput`] for `id`, waking a parked worker if
    /// the frame made the session leasable: precomputed score rows and
    /// raw feature frames take the same path, scored inline before they
    /// are queued.
    ///
    /// # Errors
    /// See [`ServeCore::ingest_frame`].
    pub fn ingest_frame(&self, id: SessionId, frame: FrameInput) -> Result<(), ServeError> {
        let mut core = self.lock();
        let armed = core.armed_total();
        let r = core.ingest_frame(id, frame, self.shared.now_ms());
        self.shared.release_and_wake(core, armed);
        r
    }

    /// Installs (or hot-swaps) the server's acoustic scorer. Affects
    /// frames ingested after the call.
    pub fn set_scorer(&self, scorer: Arc<dyn AcousticScorer>) {
        self.lock().set_scorer(scorer);
    }

    /// Marks `id` finished; its result becomes collectable once the
    /// queue drains.
    ///
    /// # Errors
    /// See [`ServeCore::finish`].
    pub fn finish(&self, id: SessionId) -> Result<(), ServeError> {
        let mut core = self.lock();
        let armed = core.armed_total();
        let r = core.finish(id, self.shared.now_ms());
        self.shared.release_and_wake(core, armed);
        r
    }

    /// The session's current non-flickering partial transcript.
    ///
    /// # Errors
    /// See [`ServeCore::stable_partial`].
    pub fn stable_partial(&self, id: SessionId) -> Result<Vec<WordId>, ServeError> {
        self.lock().stable_partial(id)
    }

    /// A snapshot of the session's scheduling state.
    ///
    /// # Errors
    /// See [`ServeCore::view`].
    pub fn view(&self, id: SessionId) -> Result<SessionView, ServeError> {
        self.lock().view(id)
    }

    /// Blocks until `id`'s queued frames have all been decoded (or
    /// `timeout` passes). Returns whether the queue drained.
    pub fn wait_drained(&self, id: SessionId, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut core = self.lock();
        loop {
            match core.view(id) {
                Ok(v) if v.queued == 0 && !v.leased => return true,
                Err(_) => return false,
                Ok(_) => {}
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let shared = &*self.shared;
            core = park(
                &shared.progress,
                &shared.progress_waiters,
                core,
                deadline - now,
            )
            .0;
        }
    }

    /// Blocks until `id`'s final result is ready and collects it,
    /// freeing the slot. `Ok(None)` on timeout.
    ///
    /// # Errors
    /// [`ServeError::UnknownSession`] if the session vanished (evicted,
    /// or already collected).
    pub fn wait_result(
        &self,
        id: SessionId,
        timeout: Duration,
    ) -> Result<Option<DecodeResult>, ServeError> {
        let deadline = Instant::now() + timeout;
        let mut core = self.lock();
        loop {
            if let Some(res) = core.take_result(id)? {
                return Ok(Some(res));
            }
            let now = Instant::now();
            if now >= deadline {
                return Ok(None);
            }
            let shared = &*self.shared;
            core = park(
                &shared.progress,
                &shared.progress_waiters,
                core,
                deadline - now,
            )
            .0;
        }
    }

    /// [`ServeConfig::idle_timeout_ms`](crate::ServeConfig) as a
    /// duration; `None` when idle eviction is off.
    pub(crate) fn idle_timeout(&self) -> Option<Duration> {
        let ms = self.lock().config().idle_timeout_ms;
        (ms > 0).then(|| Duration::from_millis(ms))
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ServeStats {
        self.lock().stats()
    }

    /// Sessions currently holding slots.
    pub fn active_sessions(&self) -> usize {
        self.lock().active_sessions()
    }

    /// Server metrics as one `unfold-obs` run record (JSONL). The
    /// occupancy gauge is refreshed from the worker busy-clocks at each
    /// scrape.
    pub fn obs_jsonl(&self) -> String {
        let search = self.shared.search_occupancy();
        let mut core = self.lock();
        core.set_stage_occupancy(search);
        core.obs_jsonl()
    }

    /// Server metrics as a markdown table (occupancy refreshed, as in
    /// [`ServeHandle::obs_jsonl`]).
    pub fn obs_markdown(&self) -> String {
        let search = self.shared.search_occupancy();
        let mut core = self.lock();
        core.set_stage_occupancy(search);
        core.obs_markdown()
    }

    /// Closed session spans as JSONL (`sspan` records, close order).
    pub fn spans_jsonl(&self) -> String {
        self.lock().spans_jsonl()
    }

    /// Closed session spans as a Chrome `trace_event` JSON array.
    pub fn spans_chrome_trace(&self) -> String {
        self.lock().spans_chrome_trace()
    }

    /// `(opened, closed, still_open)` span counts since start.
    pub fn span_counts(&self) -> (u64, u64, usize) {
        self.lock().span_counts()
    }

    /// The flight recorder: the frozen incident dump if one was pinned,
    /// otherwise a live snapshot of the event ring.
    pub fn flight_jsonl(&self) -> String {
        self.lock().flight_jsonl()
    }

    /// `(reason, dump)` of the pinned incident snapshot, if any.
    pub fn flight_frozen(&self) -> Option<(String, String)> {
        self.lock()
            .flight_frozen()
            .map(|(reason, dump)| (reason.to_string(), dump.to_string()))
    }

    /// Asks the server (and any front ends polling this flag) to stop.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.wake_all();
    }

    /// Whether shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{score_row, setup, utt};
    use unfold_am::{synthesize_utterance, HmmTopology, NoiseModel, Utterance};
    use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};

    /// Concurrent sessions through real worker threads still produce
    /// transcripts bit-identical to standalone decodes — worker
    /// scheduling is timing-dependent, results must not be.
    #[test]
    fn threaded_sessions_match_standalone_decode() {
        let (lex, am, lm) = setup();
        let word_seqs: [&[u32]; 4] = [&[3, 9, 17], &[7, 11, 4], &[22, 5], &[14, 30, 8]];
        let utts: Vec<Utterance> = word_seqs
            .iter()
            .enumerate()
            .map(|(i, w)| utt(&lex, w, 40 + i as u64))
            .collect();
        let base = DecodeConfig::default();
        let standalone: Vec<_> = utts
            .iter()
            .map(|u| OtfDecoder::new(base).decode(&*am, &*lm, &u.scores, &mut NullSink))
            .collect();

        let config = ServeConfig {
            workers: 2,
            quantum_frames: 8,
            olt_entries: 0,
            base,
            ..Default::default()
        };
        let server = Server::start(config, Arc::clone(&am), Arc::clone(&lm));
        let handle = server.handle();

        let joins: Vec<_> = utts
            .iter()
            .map(|u| {
                let handle = handle.clone();
                let frames: Vec<FrameInput> = (0..u.scores.num_frames())
                    .map(|t| score_row(u, t))
                    .collect();
                std::thread::spawn(move || {
                    let id = handle.open().expect("admit");
                    for frame in frames {
                        handle.ingest_frame(id, frame).expect("push");
                    }
                    handle.finish(id).expect("finish");
                    handle
                        .wait_result(id, Duration::from_secs(60))
                        .expect("known")
                        .expect("no timeout")
                })
            })
            .collect();
        let results: Vec<DecodeResult> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        for (served, alone) in results.iter().zip(&standalone) {
            assert_eq!(served.words, alone.words);
            assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
            assert_eq!(served.stats, alone.stats);
        }
        assert_eq!(handle.stats().finals, 4);
        // Every slot is freed, so the span ledger balances and a clean
        // run pins no flight-recorder incident.
        let (opened, closed, open) = handle.span_counts();
        assert_eq!(opened, closed);
        assert_eq!(open, 0);
        assert!(handle.flight_frozen().is_none());
        assert!(!handle.spans_jsonl().is_empty());
        server.shutdown();
    }

    #[test]
    fn wait_drained_and_partials_work_under_workers() {
        let (lex, am, lm) = setup();
        let u = synthesize_utterance(
            &[3, 9, 17],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            7,
        );
        let server = Server::start(
            ServeConfig {
                workers: 1,
                ..Default::default()
            },
            Arc::clone(&am),
            Arc::clone(&lm),
        );
        let handle = server.handle();
        let id = handle.open().unwrap();
        for t in 0..u.scores.num_frames() {
            handle.ingest_frame(id, score_row(&u, t)).unwrap();
        }
        assert!(handle.wait_drained(id, Duration::from_secs(30)));
        let partial = handle.stable_partial(id).unwrap();
        handle.finish(id).unwrap();
        let res = handle
            .wait_result(id, Duration::from_secs(30))
            .unwrap()
            .expect("final");
        assert!(
            partial.len() <= res.words.len() && res.words[..partial.len()] == partial[..],
            "stable partial {partial:?} must prefix the final {:?}",
            res.words
        );
        server.shutdown();
    }

    /// Two LMs hosted by one threaded server: sessions select per-open,
    /// run on real workers, and match standalone decodes against their
    /// own model bit for bit.
    #[test]
    fn threaded_multi_lm_sessions_match_standalone_per_lm_decodes() {
        let (lex, am, lm_a) = setup();
        let spec = CorpusSpec {
            vocab_size: 50,
            num_sentences: 300,
            ..Default::default()
        };
        let model_b = NGramModel::train(&spec.generate(17), 50, DiscountConfig::default());
        let lm_b = Arc::new(lm_to_wfst(&model_b));
        let word_seqs: [&[u32]; 4] = [&[3, 9, 17], &[7, 11, 4], &[22, 5], &[14, 30, 8]];
        let utts: Vec<Utterance> = word_seqs
            .iter()
            .enumerate()
            .map(|(i, w)| utt(&lex, w, 40 + i as u64))
            .collect();
        let base = DecodeConfig::default();
        let pick = |i: usize| if i.is_multiple_of(2) { &lm_a } else { &lm_b };
        let standalone: Vec<_> = utts
            .iter()
            .enumerate()
            .map(|(i, u)| OtfDecoder::new(base).decode(&*am, &**pick(i), &u.scores, &mut NullSink))
            .collect();

        let config = ServeConfig {
            workers: 2,
            quantum_frames: 8,
            olt_entries: 0,
            base,
            ..Default::default()
        };
        let server = Server::start_multi(
            config,
            Arc::clone(&am),
            vec![
                ("default".to_string(), Arc::clone(&lm_a)),
                ("alt".to_string(), Arc::clone(&lm_b)),
            ],
        );
        let handle = server.handle();
        assert_eq!(handle.lm_names(), vec!["default", "alt"]);
        assert!(matches!(
            handle.open_with_lm(Some("missing")),
            Err(ServeError::UnknownModel(_))
        ));

        let joins: Vec<_> = utts
            .iter()
            .enumerate()
            .map(|(i, u)| {
                let handle = handle.clone();
                let frames: Vec<FrameInput> = (0..u.scores.num_frames())
                    .map(|t| score_row(u, t))
                    .collect();
                std::thread::spawn(move || {
                    let name = if i % 2 == 0 { None } else { Some("alt") };
                    let id = handle.open_with_lm(name).expect("admit");
                    for frame in frames {
                        handle.ingest_frame(id, frame).expect("push");
                    }
                    handle.finish(id).expect("finish");
                    handle
                        .wait_result(id, Duration::from_secs(60))
                        .expect("known")
                        .expect("no timeout")
                })
            })
            .collect();
        let results: Vec<DecodeResult> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        for (served, alone) in results.iter().zip(&standalone) {
            assert_eq!(served.words, alone.words);
            assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
            assert_eq!(served.stats, alone.stats);
        }
        // Hot swap through the handle while the server runs.
        let retired = handle.retire_lm("alt").expect("retire");
        assert!(Arc::ptr_eq(&retired, &lm_b));
        assert!(handle.add_lm("alt2", lm_b).is_none());
        assert_eq!(handle.lm_names(), vec!["default", "alt2"]);
        server.shutdown();
    }

    /// Feature frames through the threaded server: the GMM-backed
    /// scorer bound at start turns them, at ingest, into exactly the
    /// rows `GmmModel::frame_costs` computes, so the served result is
    /// bit-identical (words, cost bits, full search statistics) to a
    /// standalone `decode()` of those rows.
    #[test]
    fn threaded_feature_frames_match_standalone_decode_of_the_gmm_rows() {
        use unfold_am::{AcousticScores, GmmModel};
        use unfold_decoder::GmmScorer;

        let (lex, am, lm) = setup();
        let probe = synthesize_utterance(
            &[3],
            &lex,
            HmmTopology::Kaldi3State,
            &NoiseModel::clean(),
            1,
        );
        let width = probe.scores.frame(0).len();
        let model = Arc::new(GmmModel::synthesize(width, 8, 2, 3.0, 41));
        let frames: Vec<Vec<f32>> = (0..24)
            .map(|t: usize| {
                (0..model.dim())
                    .map(|d| ((t * 31 + d * 7) % 13) as f32 * 0.25 - 1.5)
                    .collect()
            })
            .collect();
        let rows: Vec<f32> = frames.iter().flat_map(|f| model.frame_costs(f)).collect();
        let scores = AcousticScores::from_flat(rows, width);

        let config = ServeConfig {
            workers: 2,
            quantum_frames: 4,
            olt_entries: 0,
            ..Default::default()
        };
        let alone = OtfDecoder::new(config.base).decode(&*am, &*lm, &scores, &mut NullSink);
        let server = Server::start_multi_with_scorer(
            config,
            Arc::clone(&am),
            vec![(crate::sched::DEFAULT_LM.to_string(), Arc::clone(&lm))],
            Some(Arc::new(GmmScorer::new(Arc::clone(&model)))),
        );
        let handle = server.handle();
        let id = handle.open().expect("admit");
        for f in &frames {
            handle
                .ingest_frame(id, FrameInput::Features(f.clone()))
                .expect("ingest");
        }
        handle.finish(id).expect("finish");
        let served = handle
            .wait_result(id, Duration::from_secs(60))
            .expect("known")
            .expect("no timeout");
        assert_eq!(handle.stats().frames_scored, frames.len() as u64);
        assert_eq!(served.words, alone.words);
        assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
        assert_eq!(served.stats, alone.stats);
        // Workers ran, so the occupancy gauge scrapes as a number (NaN
        // renders as "-" and would mean the busy clock never reported).
        let md = handle.obs_markdown();
        let line = md
            .lines()
            .find(|l| l.contains("stage_search_occupancy"))
            .expect("stage_search_occupancy missing from scrape");
        assert!(!line.contains("NaN"), "occupancy must be a number: {line}");
        server.shutdown();
    }

    /// No wake is lost. One client runs many short sessions back to
    /// back on one and on two workers: each session's first frame finds
    /// the workers parked, and its later frames arrive while a worker is
    /// mid-lease. Every final arrives, the ledger balances, and the run
    /// stays far below the `IDLE_POLL` per session that a lost `work`
    /// wake would cost (a lost `progress` wake costs a whole
    /// `wait_result` timeout). The worker clocks and notify counters
    /// reach the scrape.
    #[test]
    fn sessions_armed_mid_lease_are_never_left_waiting_for_the_poll() {
        const SESSIONS: u32 = 60;
        let budget = IDLE_POLL * SESSIONS / 2;
        let (lex, am, lm) = setup();
        let u = utt(&lex, &[3, 9], 11);
        for workers in [1, 2] {
            let server = Server::start(
                ServeConfig {
                    workers,
                    quantum_frames: 1,
                    olt_entries: 0,
                    ..Default::default()
                },
                Arc::clone(&am),
                Arc::clone(&lm),
            );
            let handle = server.handle();
            let started = Instant::now();
            for session in 0..SESSIONS {
                let id = handle.open().expect("admit");
                for t in 0..4 {
                    handle.ingest_frame(id, score_row(&u, t)).expect("push");
                }
                handle.finish(id).expect("finish");
                handle
                    .wait_result(id, budget)
                    .expect("known")
                    .expect("every final arrives");
                let wall = started.elapsed();
                assert!(
                    wall < budget,
                    "{workers} worker(s): {} sessions took {wall:?}",
                    session + 1
                );
            }
            let stats = handle.stats();
            assert_eq!(stats.finals, u64::from(SESSIONS), "{workers} worker(s)");
            assert_eq!(stats.frames_accepted, stats.frames_decoded);
            assert_eq!(stats.frames_dropped, 0);
            assert_eq!(handle.active_sessions(), 0);
            let md = handle.obs_markdown();
            for name in [
                "serve.lock.complete_wait_ns",
                "serve.lock.complete_hold_ns",
                "serve.lock.lease_hold_ns",
                "serve.wake_to_run_ns",
                "serve.notify_work",
                "serve.notify_progress",
            ] {
                assert!(md.contains(name), "{name} missing from the scrape");
            }
            server.shutdown();
        }
    }

    #[test]
    fn shutdown_joins_workers_and_drop_is_clean() {
        let (_lex, am, lm) = setup();
        let server = Server::start(ServeConfig::default(), Arc::clone(&am), Arc::clone(&lm));
        let handle = server.handle();
        assert!(!handle.shutdown_requested());
        server.shutdown();
        assert!(handle.shutdown_requested());
        // Drop without explicit shutdown must also not hang.
        let server2 = Server::start(ServeConfig::default(), am, lm);
        drop(server2);
    }
}
