//! The differential configuration matrix, plus injectable decoder bugs.
//!
//! [`run_case`] decodes one generated case through every configuration
//! the repository claims equivalent and returns the first divergence it
//! finds. Two kinds of claims are distinguished:
//!
//! * **semantic equivalence** (on-the-fly vs offline-composed oracle,
//!   the two-pass cost bound): compared under a small cost tolerance,
//!   because the two implementations sum the same weights in different
//!   association orders — and exact-cost ties may legitimately pick
//!   different transcripts;
//! * **bit identity** (OLT on/off, fresh vs warm scratch, `jobs`
//!   ∈ {1, N}, streaming vs whole-utterance, compressed models vs their
//!   `to_wfst()` round-trips): words, cost *bits*, and search statistics
//!   must match exactly.
//!
//! [`Mutation`] wraps the LM source with a known-broken variant so the
//! campaign's detection and shrinking machinery can be exercised on a
//! bug we control; `Mutation::OltAliasing` reproduces exactly the
//! hardware-faithful OLT hazard DESIGN.md §7 documents the software
//! table avoiding (a memo hit trusted without the full-key compare).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};

use unfold::decode_batch;
use unfold_am::acoustic::FRAME_SECONDS;
use unfold_am::Utterance;
use unfold_bias::{BiasedLm, BiasingFst, OfflineBiasedLm};
use unfold_compress::{Bundle, BundleError, BundleWriter, CompressedAm, CompressedLm};
use unfold_decoder::{
    oracle_wer, DecodeConfig, DecodeKernel, DecodeResult, DecodeScratch, FullyComposedDecoder,
    LmSource, NullSink, OtfDecoder, StreamSession, TraceRecorder, TwoPassDecoder, WorkScratch,
};
use unfold_sim::{Accelerator, AcceleratorConfig};
use unfold_wfst::{compose_am_lm, Arc, ComposeOptions, Label, StateId, Wfst, EPSILON};

use crate::case::{CaseModels, CaseSpec};

/// Cost tolerance for the semantic-equivalence checks: the decoders sum
/// identical weights in different association orders, so exact f32
/// equality is not expected there (the bit-identity checks are exact).
pub const COST_TOLERANCE: f32 = 1e-2;

/// Which equivalence a divergence broke.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckId {
    /// On-the-fly vs offline-composed oracle.
    Oracle,
    /// SoA vs legacy frame kernel: result *and* ordered trace-event
    /// bit identity (implies identical OLT install/evict order).
    SoaIdentity,
    /// OLT sizes {0, small, large} bit identity.
    OltIdentity,
    /// Fresh vs warm `DecodeScratch` bit identity.
    ScratchReuse,
    /// Streaming vs whole-utterance bit identity (result and trace).
    Streaming,
    /// `decode_batch` jobs ∈ {1, N} bit identity.
    Jobs,
    /// Compressed models vs their `to_wfst()` round-trips.
    CompressRoundtrip,
    /// Compressed models over their own bytes vs bound zero-copy to an
    /// mmap-ed `.unfb` bundle (also hosts stale-checksum detection).
    MmapIdentity,
    /// Two-pass determinism and rescoring cost bound.
    TwoPass,
    /// Trace replay through the accelerator simulator is deterministic.
    SimReplay,
    /// Exact word lattices: the recorded-tape lattice's path set and
    /// costs against exhaustive enumeration over the offline-composed
    /// WFST, 1-best-in-lattice, lattice-beam respect, oracle-WER
    /// monotonicity in the lattice beam, and lattice bit identity
    /// across kernels, OLT sizes, warm scratch, and streaming.
    LatticeOracle,
    /// Personalized biasing: the on-the-fly `base LM x biasing FST`
    /// union composition against the eagerly composed biased
    /// reference, bit for bit (words, cost bits, word frames).
    BiasOracle,
    /// A check panicked instead of returning.
    Panic,
}

impl CheckId {
    /// Stable kebab-case name (used in repro files and file names).
    pub fn name(self) -> &'static str {
        match self {
            CheckId::Oracle => "oracle",
            CheckId::SoaIdentity => "soa-identity",
            CheckId::OltIdentity => "olt-identity",
            CheckId::ScratchReuse => "scratch-reuse",
            CheckId::Streaming => "streaming",
            CheckId::Jobs => "jobs",
            CheckId::CompressRoundtrip => "compress-roundtrip",
            CheckId::MmapIdentity => "mmap-identity",
            CheckId::TwoPass => "two-pass",
            CheckId::SimReplay => "sim-replay",
            CheckId::LatticeOracle => "lattice-oracle",
            CheckId::BiasOracle => "bias-oracle",
            CheckId::Panic => "panic",
        }
    }

    /// Parses [`CheckId::name`] output.
    pub fn parse(s: &str) -> Option<CheckId> {
        [
            CheckId::Oracle,
            CheckId::SoaIdentity,
            CheckId::OltIdentity,
            CheckId::ScratchReuse,
            CheckId::Streaming,
            CheckId::Jobs,
            CheckId::CompressRoundtrip,
            CheckId::MmapIdentity,
            CheckId::TwoPass,
            CheckId::SimReplay,
            CheckId::LatticeOracle,
            CheckId::BiasOracle,
            CheckId::Panic,
        ]
        .into_iter()
        .find(|c| c.name() == s)
    }
}

impl std::fmt::Display for CheckId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One broken equivalence: which check failed and how.
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// The check that failed.
    pub check: CheckId,
    /// Human-readable description of the mismatch.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.check, self.detail)
    }
}

/// An intentionally-injected decoder bug, applied to the on-the-fly
/// LM-lookup path (the offline-composed oracle never sees it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mutation {
    /// No bug: the LM source is passed through unchanged.
    #[default]
    None,
    /// A small lookup memo indexed by `(state ^ word)` that trusts any
    /// occupied slot *without comparing the full key* — the exact
    /// aliasing hazard of a tag-only direct-mapped OLT (DESIGN.md §7).
    /// Aliased hits return another `(state, word)`'s destination and
    /// weight.
    OltAliasing,
    /// Back-off arcs are traversed at zero cost, silently dropping the
    /// back-off penalties the n-gram model assigns.
    FreeBackoff,
    /// One payload byte of the packed `.unfb` bundle is flipped
    /// *without* updating the section checksum — a producer writing
    /// garbage, a torn copy, bit rot. The checksum machinery must
    /// reject the bundle with a typed error (never a panic) on *both*
    /// open paths: the eager owned open, and the lazy mapped open no
    /// later than model binding (`from_bundle`). The mmap-identity
    /// check reports either the rejections or — worse — that the
    /// corruption sailed through.
    StaleChecksum,
    /// The word-lattice builder skips lattice-beam pruning (builds with
    /// an effectively infinite beam) while still claiming the
    /// configured beam. Not an LM mutation — the decode itself is
    /// untouched, so every bit-identity check still passes and only
    /// the lattice-oracle check's `max_path_slack` assertion can catch
    /// it.
    LatticeBeamSkip,
    /// The biasing join keeps the composite destination state but
    /// drops the bias delta, returning the unmodified base weight — a
    /// personalization layer that tracks phrase progress yet never
    /// pays out (or claws back) a bonus. The decode itself stays
    /// deterministic, so every bit-identity check still passes; only
    /// the bias-oracle comparison against the offline-composed biased
    /// reference can catch it.
    BiasBonusSkip,
}

impl Mutation {
    /// Stable kebab-case name (used in repro files and the CLI).
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::OltAliasing => "olt-aliasing",
            Mutation::FreeBackoff => "free-backoff",
            Mutation::StaleChecksum => "stale-checksum",
            Mutation::LatticeBeamSkip => "lattice-beam-skip",
            Mutation::BiasBonusSkip => "bias-bonus-skip",
        }
    }

    /// Parses [`Mutation::name`] output.
    pub fn parse(s: &str) -> Option<Mutation> {
        match s {
            "none" => Some(Mutation::None),
            "olt-aliasing" => Some(Mutation::OltAliasing),
            "free-backoff" => Some(Mutation::FreeBackoff),
            "stale-checksum" => Some(Mutation::StaleChecksum),
            "lattice-beam-skip" => Some(Mutation::LatticeBeamSkip),
            "bias-bonus-skip" => Some(Mutation::BiasBonusSkip),
            _ => None,
        }
    }
}

/// Slots in the aliasing memo: tiny on purpose, so even minimized
/// models (a handful of LM states) collide.
const MEMO_SLOTS: usize = 8;

/// An [`LmSource`] wrapper applying a [`Mutation`] to a [`Wfst`] LM.
/// Each decode gets a fresh wrapper, so individual decodes stay
/// deterministic and the bit-identity checks still pass — only the
/// comparison against the composed oracle exposes the bug.
struct MutatedLm<'a> {
    inner: &'a Wfst,
    mutation: Mutation,
    memo: RefCell<[Option<(StateId, f32)>; MEMO_SLOTS]>,
}

impl<'a> MutatedLm<'a> {
    fn new(inner: &'a Wfst, mutation: Mutation) -> Self {
        MutatedLm {
            inner,
            mutation,
            memo: RefCell::new([None; MEMO_SLOTS]),
        }
    }
}

impl LmSource for MutatedLm<'_> {
    fn start(&self) -> StateId {
        LmSource::start(self.inner)
    }

    fn num_states(&self) -> usize {
        LmSource::num_states(self.inner)
    }

    fn state_addr(&self, s: StateId) -> u64 {
        LmSource::state_addr(self.inner, s)
    }

    fn lookup_word_into(
        &self,
        s: StateId,
        word: Label,
        probes: &mut Vec<unfold_decoder::sources::Fetch>,
    ) -> Option<Arc> {
        if self.mutation == Mutation::OltAliasing {
            let slot = ((s ^ word) as usize) % MEMO_SLOTS;
            if let Some((dest, weight)) = self.memo.borrow()[slot] {
                // BUG under test: the occupied slot is trusted without
                // the full-key compare, so an aliased (state, word)
                // entry is returned as if it matched.
                return Some(Arc::new(word, word, weight, dest));
            }
            let found = self.inner.lookup_word_into(s, word, probes);
            if let Some(arc) = found {
                self.memo.borrow_mut()[slot] = Some((arc.nextstate, arc.weight));
            }
            return found;
        }
        self.inner.lookup_word_into(s, word, probes)
    }

    fn backoff(&self, s: StateId) -> Option<(Arc, unfold_decoder::sources::Fetch)> {
        let (arc, fetch) = LmSource::backoff(self.inner, s)?;
        match self.mutation {
            Mutation::FreeBackoff => {
                Some((Arc::new(arc.ilabel, arc.olabel, 0.0, arc.nextstate), fetch))
            }
            _ => Some((arc, fetch)),
        }
    }
}

/// The [`Mutation::BiasBonusSkip`] wrapper: delegates every
/// [`LmSource`] method — including the memo-composition hooks, so the
/// composite state tracking stays intact — but its `memo_join` throws
/// the joined weight away and returns the unbiased base weight.
struct SkipBonus<'a, L: LmSource>(&'a L);

impl<L: LmSource> LmSource for SkipBonus<'_, L> {
    fn start(&self) -> StateId {
        self.0.start()
    }

    fn num_states(&self) -> usize {
        self.0.num_states()
    }

    fn state_addr(&self, s: StateId) -> u64 {
        self.0.state_addr(s)
    }

    fn lookup_word_into(
        &self,
        s: StateId,
        word: Label,
        probes: &mut Vec<unfold_decoder::sources::Fetch>,
    ) -> Option<Arc> {
        self.0.lookup_word_into(s, word, probes)
    }

    fn backoff(&self, s: StateId) -> Option<(Arc, unfold_decoder::sources::Fetch)> {
        self.0.backoff(s)
    }

    fn memo_split(&self, s: StateId) -> (StateId, u32) {
        self.0.memo_split(s)
    }

    fn memo_pack(&self, ctx: u32, base: StateId) -> StateId {
        self.0.memo_pack(ctx, base)
    }

    fn memo_join(&self, ctx: u32, word: Label, dest: StateId, weight: f32) -> (StateId, f32) {
        // BUG under test: the phrase walk advances (composite dest is
        // kept) but the bias delta is dropped on the floor.
        let (joined, _biased) = self.0.memo_join(ctx, word, dest, weight);
        (joined, weight)
    }

    fn has_memo_ctx(&self) -> bool {
        self.0.has_memo_ctx()
    }

    fn validation_addr(&self) -> usize {
        self.0.validation_addr()
    }
}

/// `true` when two best-path costs agree within [`COST_TOLERANCE`]
/// (both-infinite counts as agreement: neither decode completed).
fn costs_close(a: f32, b: f32) -> bool {
    if a.is_infinite() && b.is_infinite() {
        return true;
    }
    (a - b).abs() <= COST_TOLERANCE
}

/// Exact comparison for the bit-identity family: words, cost bits, and
/// the full search statistics.
fn bit_diff(label: &str, a: &DecodeResult, b: &DecodeResult) -> Option<String> {
    if a.words != b.words {
        return Some(format!("{label}: words {:?} vs {:?}", a.words, b.words));
    }
    if a.cost.to_bits() != b.cost.to_bits() {
        return Some(format!("{label}: cost bits {} vs {}", a.cost, b.cost));
    }
    if a.stats != b.stats {
        return Some(format!("{label}: stats {:?} vs {:?}", a.stats, b.stats));
    }
    None
}

/// Comparison for configurations whose fetch counts legitimately differ
/// (OLT hits skip probes; compressed lookups probe differently): words
/// and cost bits exact, search-shape statistics exact, fetch counters
/// ignored.
fn search_diff(label: &str, a: &DecodeResult, b: &DecodeResult) -> Option<String> {
    if a.words != b.words {
        return Some(format!("{label}: words {:?} vs {:?}", a.words, b.words));
    }
    if a.cost.to_bits() != b.cost.to_bits() {
        return Some(format!("{label}: cost bits {} vs {}", a.cost, b.cost));
    }
    let sa = &a.stats;
    let sb = &b.stats;
    if (sa.frames, sa.tokens_created, sa.lm_lookups, sa.backoff_hops)
        != (sb.frames, sb.tokens_created, sb.lm_lookups, sb.backoff_hops)
    {
        return Some(format!(
            "{label}: search shape (frames/tokens/lookups/hops) \
             ({}/{}/{}/{}) vs ({}/{}/{}/{})",
            sa.frames,
            sa.tokens_created,
            sa.lm_lookups,
            sa.backoff_hops,
            sb.frames,
            sb.tokens_created,
            sb.lm_lookups,
            sb.backoff_hops
        ));
    }
    None
}

/// Runs one case through the full configuration matrix and returns the
/// first divergence, or `None` when every equivalence held.
pub fn run_case(spec: &CaseSpec, mutation: Mutation) -> Option<Divergence> {
    run_case_filtered(spec, mutation, None)
}

/// [`run_case`] restricted to a single check (`None` runs them all).
/// The baseline decode always runs; every other configuration is built
/// only when its check is selected, so a `--check lattice-oracle`
/// campaign does not pay for the rest of the matrix.
pub fn run_case_filtered(
    spec: &CaseSpec,
    mutation: Mutation,
    only: Option<CheckId>,
) -> Option<Divergence> {
    let want = |c: CheckId| only.is_none_or(|o| o == c);
    let m = CaseModels::build(spec);
    let cfg = DecodeConfig::builder()
        .beam(spec.beam)
        .max_active(spec.max_active)
        .preemptive_pruning(true)
        .olt_entries(0)
        .build()
        .expect("case spec yields a valid config");
    let dec = OtfDecoder::new(cfg);
    let scores = &m.utt.scores;

    // Baseline on-the-fly decode, trace recorded for the streaming and
    // simulator checks.
    let mut base_rec = TraceRecorder::new();
    let baseline = {
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        dec.decode(&m.am.fst, &lm, scores, &mut base_rec)
    };

    // The offline-composed graph serves both the 1-best oracle (check
    // 1) and the lattice oracle's exhaustive path enumeration (check 9).
    let composed = (want(CheckId::Oracle) || want(CheckId::LatticeOracle))
        .then(|| compose_am_lm(&m.am.fst, &m.lm_fst, ComposeOptions::default()));

    // 1. On-the-fly vs offline-composed oracle (semantic equivalence;
    //    a transcript difference at equal cost is an accepted tie).
    if want(CheckId::Oracle) {
        let composed = composed.as_ref().expect("composed graph built above");
        let oracle = FullyComposedDecoder::new(cfg).decode(composed, scores, &mut NullSink);
        if !costs_close(baseline.cost, oracle.cost) {
            return Some(Divergence {
                check: CheckId::Oracle,
                detail: format!(
                    "otf cost {} words {:?} vs composed cost {} words {:?}",
                    baseline.cost, baseline.words, oracle.cost, oracle.words
                ),
            });
        }
    }

    // 2. SoA vs legacy kernel: the strongest claim in the matrix —
    //    words, cost bits, full stats, and the *ordered* trace-event
    //    stream must all match, whichever kernel the baseline ran.
    if want(CheckId::SoaIdentity) {
        let other = match cfg.kernel {
            DecodeKernel::Legacy => DecodeKernel::Soa,
            DecodeKernel::Soa => DecodeKernel::Legacy,
        };
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let mut rec = TraceRecorder::new();
        let alt = OtfDecoder::new(
            cfg.to_builder()
                .kernel(other)
                .build()
                .expect("case spec yields a valid config"),
        )
        .decode(&m.am.fst, &lm, scores, &mut rec);
        if let Some(d) = bit_diff("soa vs legacy kernel", &alt, &baseline) {
            return Some(Divergence {
                check: CheckId::SoaIdentity,
                detail: d,
            });
        }
        if rec.events() != base_rec.events() {
            return Some(Divergence {
                check: CheckId::SoaIdentity,
                detail: format!(
                    "kernel trace diverged: {} events ({other:?}) vs {} ({:?})",
                    rec.len(),
                    base_rec.len(),
                    cfg.kernel
                ),
            });
        }
    }

    // 3. OLT sizes {small, large} vs disabled: bit identity of the
    //    search, fetch savings allowed.
    for entries in [spec.olt_small, spec.olt_large] {
        if !want(CheckId::OltIdentity) {
            break;
        }
        let on = {
            let lm = MutatedLm::new(&m.lm_fst, mutation);
            OtfDecoder::new(
                cfg.to_builder()
                    .olt_entries(entries)
                    .build()
                    .expect("case spec yields a valid config"),
            )
            .decode(&m.am.fst, &lm, scores, &mut NullSink)
        };
        if let Some(d) = search_diff(&format!("olt_entries={entries}"), &on, &baseline) {
            return Some(Divergence {
                check: CheckId::OltIdentity,
                detail: d,
            });
        }
        if on.stats.lm_fetches > baseline.stats.lm_fetches {
            return Some(Divergence {
                check: CheckId::OltIdentity,
                detail: format!(
                    "olt_entries={entries}: {} lm fetches, more than the {} without a table",
                    on.stats.lm_fetches, baseline.stats.lm_fetches
                ),
            });
        }
    }

    // 3. Warm scratch: the second decode through a reused scratch must
    //    be bit-identical to the fresh-scratch baseline.
    if want(CheckId::ScratchReuse) {
        let mut scratch = DecodeScratch::new();
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let _first = dec.decode_with(&m.am.fst, &lm, scores, &mut scratch, &mut NullSink);
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let warm = dec.decode_with(&m.am.fst, &lm, scores, &mut scratch, &mut NullSink);
        if let Some(d) = bit_diff("warm scratch", &warm, &baseline) {
            return Some(Divergence {
                check: CheckId::ScratchReuse,
                detail: d,
            });
        }
    }

    // 4. Streaming vs whole-utterance: result and trace bit identity.
    if want(CheckId::Streaming) {
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let mut rec = TraceRecorder::new();
        let (mut work, mut sess) = (WorkScratch::new(), StreamSession::new(cfg));
        work.begin(&cfg);
        sess.seed(&m.am.fst, &lm, &mut work, &mut rec);
        for t in 0..scores.num_frames() {
            sess.push_frame(&m.am.fst, &lm, &mut work, scores.frame(t), &mut rec);
        }
        let streamed = sess.finalize(&m.am.fst, &mut rec);
        if let Some(d) = bit_diff("streaming", &streamed, &baseline) {
            return Some(Divergence {
                check: CheckId::Streaming,
                detail: d,
            });
        }
        if rec.events() != base_rec.events() {
            return Some(Divergence {
                check: CheckId::Streaming,
                detail: format!(
                    "trace diverged: {} streamed events vs {} batch events",
                    rec.len(),
                    base_rec.len()
                ),
            });
        }
    }

    // 5. decode_batch jobs ∈ {1, N}: every per-utterance result
    //    bit-identical, and the pool never over-spawns.
    if want(CheckId::Jobs) {
        let batch = m.batch(spec, 2);
        let decode_one = |_i: usize, utt: &Utterance, scratch: &mut DecodeScratch| {
            let lm = MutatedLm::new(&m.lm_fst, mutation);
            let mut sink = NullSink;
            dec.decode_with(&m.am.fst, &lm, &utt.scores, scratch, &mut sink)
        };
        let (serial, _) = decode_batch(&batch, 1, decode_one);
        let (parallel, pool) = decode_batch(&batch, batch.len(), decode_one);
        if pool.workers > batch.len() {
            return Some(Divergence {
                check: CheckId::Jobs,
                detail: format!("{} workers for {} utterances", pool.workers, batch.len()),
            });
        }
        for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
            if let Some(d) = bit_diff(&format!("jobs utt {i}"), b, a) {
                return Some(Divergence {
                    check: CheckId::Jobs,
                    detail: d,
                });
            }
        }
    }

    // 6. Compressed models vs their to_wfst() round-trips: both sides
    //    serve the same quantized weights, so the decodes must agree
    //    bit for bit (probe counts differ by layout and are ignored).
    if want(CheckId::CompressRoundtrip) {
        let comp = dec.decode(&m.cam, &m.clm, scores, &mut NullSink);
        let am_rt = m.cam.to_wfst();
        let lm_rt = m.clm.to_wfst();
        let roundtrip = dec.decode(&am_rt, &lm_rt, scores, &mut NullSink);
        if let Some(d) = search_diff("compressed vs to_wfst round-trip", &comp, &roundtrip) {
            return Some(Divergence {
                check: CheckId::CompressRoundtrip,
                detail: d,
            });
        }
    }

    // 6b. Zero-copy bundle identity: pack the compressed models into a
    //     `.unfb`, mmap it back, and decode through models bound to the
    //     mapped bytes — words, cost bits, and the full stats must match the decode
    //     over the models' own bytes bit for bit. Under `StaleChecksum`
    //     the bundle is corrupted after packing and *both* open paths
    //     must reject it typed: the eager owned open, and the lazy
    //     mapped open no later than `from_bundle` model binding
    //     (after which decode bytes are reachable). The typed rejection
    //     (or its absence) is the reported divergence.
    if want(CheckId::MmapIdentity) {
        let comp = dec.decode(&m.cam, &m.clm, scores, &mut NullSink);
        let mut w = BundleWriter::new();
        w.add_am(&m.cam);
        w.add_lm("default", &m.clm);
        let mut bytes = w.finish().expect("well-formed models pack");
        static BUNDLE_SERIAL: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "unfold-verify-{}-{}.unfb",
            std::process::id(),
            BUNDLE_SERIAL.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        if mutation == Mutation::StaleChecksum {
            // Flip a payload byte of the last section; its table CRC
            // is now stale.
            let last = bytes.len() - 1;
            bytes[last] ^= 0x40;
            // The eager owned open must reject it outright...
            let owned_section = match Bundle::from_bytes(bytes.clone()) {
                Err(BundleError::ChecksumMismatch(section)) => section,
                Err(e) => {
                    return Some(Divergence {
                        check: CheckId::MmapIdentity,
                        detail: format!("stale checksum rejected with the wrong error: {e}"),
                    });
                }
                Ok(_) => {
                    return Some(Divergence {
                        check: CheckId::MmapIdentity,
                        detail: "stale checksum NOT detected: corrupt bundle opened clean".into(),
                    });
                }
            };
            // ...and the mapped path must reject it at model binding:
            // `Bundle::open_mmap` checks only the section table, but
            // `from_bundle` streams each payload's CRC before any decode
            // path can see the bytes.
            if let Err(e) = std::fs::write(&path, &bytes) {
                return Some(Divergence {
                    check: CheckId::MmapIdentity,
                    detail: format!("bundle temp write failed: {e}"),
                });
            }
            let mapped = (|| -> Result<(), BundleError> {
                let bundle = std::sync::Arc::new(Bundle::open_mmap(&path)?);
                CompressedAm::from_bundle(std::sync::Arc::clone(&bundle))?;
                CompressedLm::from_bundle(bundle, "default")?;
                Ok(())
            })();
            std::fs::remove_file(&path).ok();
            return Some(match mapped {
                Err(BundleError::ChecksumMismatch(section)) => Divergence {
                    check: CheckId::MmapIdentity,
                    detail: format!(
                        "stale checksum on section '{owned_section}' rejected at owned open \
                         and at mmap model binding ('{section}')"
                    ),
                },
                Err(e) => Divergence {
                    check: CheckId::MmapIdentity,
                    detail: format!(
                        "stale checksum: mmap model binding rejected with the wrong error: {e}"
                    ),
                },
                Ok(()) => Divergence {
                    check: CheckId::MmapIdentity,
                    detail: "stale checksum NOT detected on the mmap path: \
                             corrupt payload bound clean"
                        .into(),
                },
            });
        }
        if let Err(e) = std::fs::write(&path, &bytes) {
            return Some(Divergence {
                check: CheckId::MmapIdentity,
                detail: format!("bundle temp write failed: {e}"),
            });
        }
        let mapped = (|| -> Result<DecodeResult, unfold_compress::BundleError> {
            let bundle = std::sync::Arc::new(Bundle::open_mmap(&path)?);
            let am = CompressedAm::from_bundle(std::sync::Arc::clone(&bundle))?;
            let lm = CompressedLm::from_bundle(bundle, "default")?;
            Ok(dec.decode(&am, &lm, scores, &mut NullSink))
        })();
        std::fs::remove_file(&path).ok();
        match mapped {
            Ok(mapped) => {
                if let Some(d) = bit_diff("mmap-bound models", &mapped, &comp) {
                    return Some(Divergence {
                        check: CheckId::MmapIdentity,
                        detail: d,
                    });
                }
            }
            Err(e) => {
                return Some(Divergence {
                    check: CheckId::MmapIdentity,
                    detail: format!("clean bundle failed to open mapped: {e}"),
                });
            }
        }
    }

    // 7. Two-pass: bitwise deterministic across runs; and under a wide
    //    beam on the unrounded model, its exact full-LM rescore of a
    //    first-pass candidate can never beat the one-pass optimum.
    if want(CheckId::TwoPass) {
        let tp = TwoPassDecoder::new(cfg, 8);
        let a = tp.decode(&m.am.fst, &m.lm_model, scores, &mut NullSink);
        let b = tp.decode(&m.am.fst, &m.lm_model, scores, &mut NullSink);
        if let Some(d) = bit_diff("two-pass determinism", &b.result, &a.result) {
            return Some(Divergence {
                check: CheckId::TwoPass,
                detail: d,
            });
        }
        let bound_applies = mutation == Mutation::None
            && spec.weight_grid == 0.0
            && spec.beam >= 12.0
            && spec.max_active >= 1000
            && baseline.cost.is_finite()
            && a.result.cost.is_finite();
        if bound_applies && a.result.cost < baseline.cost - COST_TOLERANCE {
            return Some(Divergence {
                check: CheckId::TwoPass,
                detail: format!(
                    "rescored cost {} beats the one-pass optimum {}",
                    a.result.cost, baseline.cost
                ),
            });
        }
    }

    // 8. Trace replay through the accelerator simulator twice: the
    //    SimReports must be equal (the simulator is deterministic in
    //    the trace). Zero-frame utterances carry no audio, and
    //    `Accelerator::finish` documents a positive-audio contract, so
    //    they are skipped here.
    if want(CheckId::SimReplay) && scores.num_frames() > 0 {
        let audio = scores.num_frames() as f64 * FRAME_SECONDS;
        let replay = || {
            let mut acc = Accelerator::new(AcceleratorConfig::unfold());
            base_rec.replay(&mut acc);
            acc.finish(audio)
        };
        let r1 = replay();
        let r2 = replay();
        if r1 != r2 {
            return Some(Divergence {
                check: CheckId::SimReplay,
                detail: "replaying the same trace produced different SimReports".into(),
            });
        }
    }

    // 9. Lattice oracle: build the exact word lattice from the
    //    recorded expansion tape and pin it four ways — the decode it
    //    rides on is bit-identical to the plain decode, its 1-best
    //    reproduces the baseline, no surviving arc exceeds the claimed
    //    lattice beam, its path set is sound (and, under a wide clean
    //    beam, complete) against exhaustive enumeration over the
    //    offline-composed graph, its oracle WER is monotone in the
    //    lattice beam, and the lattice itself is bit-identical across
    //    kernels, OLT sizes, warm scratch, and streaming.
    if want(CheckId::LatticeOracle) {
        if let Some(d) = lattice_oracle_check(
            spec,
            mutation,
            &m,
            cfg,
            &baseline,
            composed.as_ref().expect("composed graph built above"),
        ) {
            return Some(d);
        }
    }

    // 10. Bias oracle: a per-case personalized decode — the on-the-fly
    //     union composition over the case LM vs the eagerly composed
    //     biased reference, bit for bit, plus two-layer-cache bit
    //     identity. This is where `Mutation::BiasBonusSkip` surfaces.
    if want(CheckId::BiasOracle) {
        if let Some(d) = bias_oracle_check(spec, mutation, &m, cfg) {
            return Some(d);
        }
    }

    None
}

/// The lattice-beam the lattice-oracle check builds (and claims) for a
/// spec: half the search beam, clamped into a range where both the
/// soundness enumeration and the monotonicity comparison stay cheap.
fn lattice_oracle_beam(spec: &CaseSpec) -> f32 {
    (spec.beam * 0.5).clamp(1.0, 6.0)
}

/// Heap-pop budget for the lattice-side path enumerations.
const LATTICE_PATH_BUDGET: usize = 200_000;
/// Pop budget for the exhaustive composed-graph enumeration.
const GRAPH_PATH_BUDGET: usize = 400_000;

fn lattice_oracle_check(
    spec: &CaseSpec,
    mutation: Mutation,
    m: &CaseModels,
    cfg: DecodeConfig,
    baseline: &DecodeResult,
    composed: &Wfst,
) -> Option<Divergence> {
    let div = |detail: String| {
        Some(Divergence {
            check: CheckId::LatticeOracle,
            detail,
        })
    };
    let scores = &m.utt.scores;
    let claimed = lattice_oracle_beam(spec);
    // The planted bug: build with an effectively infinite beam while
    // still claiming `claimed`.
    let built = |b: f32| {
        if mutation == Mutation::LatticeBeamSkip {
            1e9
        } else {
            b
        }
    };
    let lat_cfg = cfg
        .to_builder()
        .lattice_beam(built(claimed))
        .build()
        .expect("case spec yields a valid config");
    let lat_dec = OtfDecoder::new(lat_cfg);
    let (lat_res, lattice) = {
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        lat_dec.decode_lattice(&m.am.fst, &lm, scores, &mut NullSink)
    };

    // Recording the expansion tape must not perturb the search.
    if let Some(d) = bit_diff("decode_lattice vs decode", &lat_res, baseline) {
        return div(d);
    }
    if lat_res.is_complete() == lattice.is_empty() {
        return div(format!(
            "complete={} but the lattice has {} final nodes",
            lat_res.is_complete(),
            lattice.finals().len()
        ));
    }
    if !lat_res.is_complete() {
        return None; // nothing reached a final state; no lattice to pin
    }

    // (a) 1-best-in-lattice: the lattice's best path reproduces the
    //     Viterbi result. Under a coarse weight grid equal-cost paths
    //     tie and the tie-break orders differ, so the transcript
    //     compare is gated the same way the oracle check treats ties.
    let nb = lattice.nbest(1);
    match nb.first() {
        Some((words, cost)) => {
            if !costs_close(*cost, baseline.cost)
                || !costs_close(lattice.best_cost(), baseline.cost)
            {
                return div(format!(
                    "lattice best cost {} / 1-best cost {} vs decode cost {}",
                    lattice.best_cost(),
                    cost,
                    baseline.cost
                ));
            }
            if spec.weight_grid == 0.0 && *words != baseline.words {
                return div(format!(
                    "lattice 1-best {words:?} vs decode words {:?}",
                    baseline.words
                ));
            }
        }
        None => return div("complete decode but nbest(1) is empty".into()),
    }

    // (b) lattice-beam respect: no surviving arc lies on a path worse
    //     than best + claimed beam. This is the assertion that catches
    //     `Mutation::LatticeBeamSkip`.
    let slack = lattice.max_path_slack();
    if slack > claimed + COST_TOLERANCE {
        return div(format!(
            "max path slack {slack} exceeds the claimed lattice beam {claimed}"
        ));
    }

    // (c) determinism: the lattice is bit-identical whichever kernel,
    //     OLT size, scratch history, or frame-delivery mode produced
    //     it.
    {
        let other = match cfg.kernel {
            DecodeKernel::Legacy => DecodeKernel::Soa,
            DecodeKernel::Soa => DecodeKernel::Legacy,
        };
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let (ares, alat) = OtfDecoder::new(
            lat_cfg
                .to_builder()
                .kernel(other)
                .build()
                .expect("case spec yields a valid config"),
        )
        .decode_lattice(&m.am.fst, &lm, scores, &mut NullSink);
        if let Some(d) = bit_diff("lattice kernel swap", &ares, &lat_res) {
            return div(d);
        }
        if !alat.bit_identical(&lattice) {
            return div(format!("kernel swap ({other:?}) changed the lattice"));
        }
    }
    for entries in [spec.olt_small, spec.olt_large] {
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let (ores, olat) = OtfDecoder::new(
            lat_cfg
                .to_builder()
                .olt_entries(entries)
                .build()
                .expect("case spec yields a valid config"),
        )
        .decode_lattice(&m.am.fst, &lm, scores, &mut NullSink);
        if let Some(d) = search_diff(&format!("lattice olt_entries={entries}"), &ores, &lat_res) {
            return div(d);
        }
        if !olat.bit_identical(&lattice) {
            return div(format!("olt_entries={entries} changed the lattice"));
        }
    }
    {
        let mut scratch = DecodeScratch::new();
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let _first =
            lat_dec.decode_lattice_with(&m.am.fst, &lm, scores, &mut scratch, &mut NullSink);
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let (wres, wlat) =
            lat_dec.decode_lattice_with(&m.am.fst, &lm, scores, &mut scratch, &mut NullSink);
        if let Some(d) = bit_diff("lattice warm scratch", &wres, &lat_res) {
            return div(d);
        }
        if !wlat.bit_identical(&lattice) {
            return div("warm scratch changed the lattice".into());
        }
    }
    {
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let (mut work, mut sess) = (WorkScratch::new(), StreamSession::new(lat_cfg));
        work.begin(&lat_cfg);
        sess.enable_lattice();
        sess.seed(&m.am.fst, &lm, &mut work, &mut NullSink);
        for t in 0..scores.num_frames() {
            sess.push_frame(&m.am.fst, &lm, &mut work, scores.frame(t), &mut NullSink);
        }
        let (sres, slat) = sess.finalize_lattice(&m.am.fst, &mut NullSink);
        if let Some(d) = bit_diff("lattice streaming", &sres, &lat_res) {
            return div(d);
        }
        if !slat.bit_identical(&lattice) {
            return div("streaming frame delivery changed the lattice".into());
        }
    }

    // (d) soundness against the offline-composed graph: every word
    //     sequence the lattice holds within `best + claimed` must have
    //     a composed-graph path no cheaper than tolerance below the
    //     lattice's cost for it — the lattice can never invent a path
    //     or undercut the graph. Both enumerations are budgeted; a
    //     blow-up skips the comparison rather than failing it.
    let bound = lattice.best_cost() + claimed;
    let lat_paths = lattice.paths_within(bound, LATTICE_PATH_BUDGET);
    if let Some(lat_paths) = &lat_paths {
        if let Some(true_paths) = enumerate_composed_paths(
            composed,
            scores,
            f64::from(bound) + f64::from(COST_TOLERANCE),
            GRAPH_PATH_BUDGET,
        ) {
            let tol = 2.0 * f64::from(COST_TOLERANCE);
            for (words, &c) in lat_paths {
                match true_paths.get(words) {
                    Some(&tc) if tc <= c + tol => {}
                    Some(&tc) => {
                        return div(format!(
                            "lattice path {words:?} costs {c:.4} but the composed graph's \
                             best is {tc:.4}"
                        ));
                    }
                    None => {
                        return div(format!(
                            "lattice path {words:?} (cost {c:.4}) has no composed-graph \
                             path within {bound:.4}"
                        ));
                    }
                }
            }
            // Completeness, gated like the two-pass cost bound: under a
            // wide clean beam every composed-graph path within *half*
            // the lattice beam must appear in the lattice (per-frame
            // beam and histogram pruning can legitimately drop
            // low-global-slack paths under tight budgets).
            let complete_applies = mutation == Mutation::None
                && spec.weight_grid == 0.0
                && spec.beam >= 12.0
                && spec.max_active >= 1000;
            if complete_applies {
                let tight = f64::from(lattice.best_cost() + claimed * 0.5);
                for (words, &tc) in &true_paths {
                    if tc <= tight && !lat_paths.contains_key(words) {
                        return div(format!(
                            "composed-graph path {words:?} (cost {tc:.4}, within half the \
                             lattice beam) is missing from the lattice"
                        ));
                    }
                }
            }
        }
    }

    // (e) oracle-WER monotonicity in the lattice beam: a narrower
    //     build's path set is a subset of the wider one's, so its
    //     oracle WER can only be equal or worse.
    {
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let (nres, nlat) = OtfDecoder::new(
            cfg.to_builder()
                .lattice_beam(built(claimed * 0.5))
                .build()
                .expect("case spec yields a valid config"),
        )
        .decode_lattice(&m.am.fst, &lm, scores, &mut NullSink);
        // The lattice beam is a post-pass knob: the search is untouched.
        if let Some(d) = bit_diff("lattice narrow-beam decode", &nres, &lat_res) {
            return div(d);
        }
        let narrow = nlat.paths_within(nlat.best_cost() + claimed * 0.5, LATTICE_PATH_BUDGET);
        if let (Some(narrow), Some(wide)) = (&narrow, &lat_paths) {
            for words in narrow.keys() {
                if !wide.contains_key(words) {
                    return div(format!(
                        "narrow-beam lattice path {words:?} is missing from the \
                         wider-beam lattice"
                    ));
                }
            }
            if !narrow.is_empty() && !wide.is_empty() {
                let errors = |paths: &std::collections::BTreeMap<Vec<u32>, f64>| {
                    let cands: Vec<Vec<u32>> = paths.keys().cloned().collect();
                    let r = oracle_wer(&m.utt.words, &cands);
                    r.substitutions + r.deletions + r.insertions
                };
                let (en, ew) = (errors(narrow), errors(wide));
                if en < ew {
                    return div(format!(
                        "oracle WER worsened as the lattice beam widened: \
                         {en} errors at beam {}, {ew} at beam {claimed}",
                        claimed * 0.5
                    ));
                }
            }
        }
    }

    None
}

/// Salt folded into the case seed to derive its biasing phrase list.
/// A *derived* quantity — not a [`CaseSpec`] knob — so the spec's own
/// RNG draw sequence (and every existing repro file) is untouched.
const BIAS_SALT: u64 = 0xB1A5;

/// Phrases minted per case for the bias-oracle check.
const BIAS_PHRASES: usize = 4;

/// The biasing model the bias-oracle check decodes `spec` against.
/// Shrinking the spec re-derives the phrases, so minimized cases keep
/// a well-formed (and usually still-firing) bias.
pub fn case_bias(spec: &CaseSpec) -> BiasingFst {
    BiasingFst::mint(spec.seed ^ BIAS_SALT, spec.vocab_size as u32, BIAS_PHRASES)
}

/// Comparison for the bias-oracle pair: the two sides resolve through
/// different arc layouts (on-the-fly walk vs materialized composite
/// arcs), so fetch and probe counters legitimately differ — words,
/// cost bits, and per-word frame alignments must still match exactly.
fn bias_diff(label: &str, a: &DecodeResult, b: &DecodeResult) -> Option<String> {
    if a.words != b.words {
        return Some(format!("{label}: words {:?} vs {:?}", a.words, b.words));
    }
    if a.cost.to_bits() != b.cost.to_bits() {
        return Some(format!("{label}: cost bits {} vs {}", a.cost, b.cost));
    }
    if a.word_frames != b.word_frames {
        return Some(format!(
            "{label}: word frames {:?} vs {:?}",
            a.word_frames, b.word_frames
        ));
    }
    None
}

fn bias_oracle_check(
    spec: &CaseSpec,
    mutation: Mutation,
    m: &CaseModels,
    cfg: DecodeConfig,
) -> Option<Divergence> {
    let div = |detail: String| {
        Some(Divergence {
            check: CheckId::BiasOracle,
            detail,
        })
    };
    let scores = &m.utt.scores;
    let bias = case_bias(spec);
    let dec = OtfDecoder::new(cfg);

    // The reference: everything UNFOLD avoids — the eagerly
    // materialized `base LM x biasing FST` product. Composed over the
    // *clean* LM: the stateful mutation wrappers apply to the
    // on-the-fly side only (same convention as the plain oracle).
    let oracle = OfflineBiasedLm::compose(&m.lm_fst, &bias);
    let reference = dec.decode(&m.am.fst, &oracle, scores, &mut NullSink);

    let lm = MutatedLm::new(&m.lm_fst, mutation);
    let biased = BiasedLm::new(&lm, &bias);
    let otf = if mutation == Mutation::BiasBonusSkip {
        dec.decode(&m.am.fst, &SkipBonus(&biased), scores, &mut NullSink)
    } else {
        dec.decode(&m.am.fst, &biased, scores, &mut NullSink)
    };
    if let Some(d) = bias_diff("biased otf vs offline-composed oracle", &otf, &reference) {
        return div(d);
    }

    // Two-layer cache identity: turning the shared worker OLT on (the
    // base-expansion layer under the per-session bias cache) must not
    // change a bit of the biased decode.
    for entries in [spec.olt_small, spec.olt_large] {
        let lm = MutatedLm::new(&m.lm_fst, mutation);
        let biased = BiasedLm::new(&lm, &bias);
        let olt_cfg = cfg
            .to_builder()
            .olt_entries(entries)
            .build()
            .expect("case spec yields a valid config");
        let on = if mutation == Mutation::BiasBonusSkip {
            OtfDecoder::new(olt_cfg).decode(&m.am.fst, &SkipBonus(&biased), scores, &mut NullSink)
        } else {
            OtfDecoder::new(olt_cfg).decode(&m.am.fst, &biased, scores, &mut NullSink)
        };
        if let Some(d) = bias_diff(&format!("biased olt_entries={entries}"), &on, &otf) {
            return div(d);
        }
    }

    None
}

/// Exhaustively enumerates every word sequence the offline-composed
/// graph accepts over the utterance with total cost at most `bound`,
/// returning each sequence's cheapest cost, or `None` when the budget
/// runs out. Alignment variants of one word sequence are merged via a
/// best-cost table keyed by `(state, frame, words)` — exactly the merge
/// the lattice's own enumerator performs — and the search prunes with
/// an admissible per-frame minimum-emission suffix bound (every
/// acoustic cost and arc weight in the generated models is
/// non-negative).
fn enumerate_composed_paths(
    fst: &Wfst,
    scores: &unfold_am::AcousticScores,
    bound: f64,
    budget: usize,
) -> Option<std::collections::BTreeMap<Vec<u32>, f64>> {
    use std::collections::{BTreeMap, HashMap};
    let frames = scores.num_frames();
    let mut suffix = vec![0f64; frames + 1];
    for t in (0..frames).rev() {
        let row = scores.frame(t);
        let mn = row.iter().copied().fold(f32::INFINITY, f32::min);
        suffix[t] = suffix[t + 1] + f64::from(mn);
    }

    let mut seen: HashMap<(StateId, usize, Vec<u32>), f64> = HashMap::new();
    let mut out: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
    let mut stack: Vec<(StateId, usize, f64, Vec<u32>)> = Vec::new();
    if suffix[0] <= bound {
        seen.insert((fst.start(), 0, Vec::new()), 0.0);
        stack.push((fst.start(), 0, 0.0, Vec::new()));
    }
    let mut pops = 0usize;
    while let Some((s, t, g, words)) = stack.pop() {
        pops += 1;
        if pops > budget {
            return None;
        }
        // A cheaper route to this (state, frame, words) superseded us
        // after we were pushed.
        if seen.get(&(s, t, words.clone())).is_some_and(|&g0| g0 < g) {
            continue;
        }
        if t == frames {
            if let Some(fw) = fst.final_weight(s) {
                let total = g + f64::from(fw);
                if total <= bound {
                    out.entry(words.clone())
                        .and_modify(|c| *c = c.min(total))
                        .or_insert(total);
                }
            }
        }
        for arc in fst.arcs(s) {
            let (nt, ng) = if arc.ilabel == EPSILON {
                (t, g + f64::from(arc.weight))
            } else if t < frames {
                (
                    t + 1,
                    g + f64::from(arc.weight) + f64::from(scores.cost(t, arc.ilabel)),
                )
            } else {
                continue; // no frames left to consume
            };
            if ng + suffix[nt] > bound {
                continue;
            }
            let mut nw = words.clone();
            if arc.olabel != EPSILON {
                nw.push(arc.olabel);
            }
            let key = (arc.nextstate, nt, nw);
            match seen.get(&key) {
                Some(&g0) if g0 <= ng => continue, // dominated (also breaks 0-cost ε-cycles)
                _ => {}
            }
            seen.insert(key.clone(), ng);
            stack.push((key.0, key.1, ng, key.2));
        }
    }
    Some(out)
}

/// [`run_case`] with panics converted into [`CheckId::Panic`]
/// divergences, so a crashing configuration is shrunk like any other.
pub fn run_case_caught(spec: &CaseSpec, mutation: Mutation) -> Option<Divergence> {
    run_case_caught_filtered(spec, mutation, None)
}

/// [`run_case_filtered`] with panics converted into
/// [`CheckId::Panic`] divergences.
pub fn run_case_caught_filtered(
    spec: &CaseSpec,
    mutation: Mutation,
    only: Option<CheckId>,
) -> Option<Divergence> {
    match catch_unwind(AssertUnwindSafe(|| run_case_filtered(spec, mutation, only))) {
        Ok(outcome) => outcome,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            Some(Divergence {
                check: CheckId::Panic,
                detail: msg,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_cases_pass_every_check() {
        for i in 0..4 {
            let spec = CaseSpec::derive(0xC1EA4, i);
            assert_eq!(run_case(&spec, Mutation::None), None, "case {i}: {spec:?}");
        }
    }

    #[test]
    fn injected_bugs_are_caught() {
        for mutation in [
            Mutation::OltAliasing,
            Mutation::FreeBackoff,
            Mutation::StaleChecksum,
            Mutation::LatticeBeamSkip,
            Mutation::BiasBonusSkip,
        ] {
            let caught = (0..12).any(|i| {
                let spec = CaseSpec::derive(0xB00, i);
                run_case_caught(&spec, mutation).is_some()
            });
            assert!(caught, "{mutation:?} survived 12 cases undetected");
        }
    }

    #[test]
    fn lattice_beam_skip_is_caught_by_the_lattice_oracle_alone() {
        let caught = (0..12).find_map(|i| {
            let spec = CaseSpec::derive(0xB00, i);
            run_case_caught_filtered(
                &spec,
                Mutation::LatticeBeamSkip,
                Some(CheckId::LatticeOracle),
            )
        });
        let d = caught.expect("a skipped lattice beam must surface within 12 cases");
        assert_eq!(d.check, CheckId::LatticeOracle);
        assert!(
            d.detail.contains("exceeds the claimed lattice beam"),
            "want the slack assertion, got: {}",
            d.detail
        );
    }

    #[test]
    fn bias_bonus_skip_is_caught_by_the_bias_oracle_alone() {
        // The decode is deterministic with the bonus dropped, so every
        // bit-identity check passes; only the comparison against the
        // offline-composed biased reference can see the missing delta.
        let caught = (0..12).find_map(|i| {
            let spec = CaseSpec::derive(0xB00, i);
            let full = run_case_caught(&spec, Mutation::BiasBonusSkip);
            if let Some(d) = &full {
                assert_eq!(
                    d.check,
                    CheckId::BiasOracle,
                    "bias-bonus-skip leaked into another check: {d}"
                );
            }
            full
        });
        let d = caught.expect("a dropped bias bonus must surface within 12 cases");
        assert!(
            d.detail.contains("oracle") || d.detail.contains("olt"),
            "want the bias comparison, got: {}",
            d.detail
        );
    }

    #[test]
    fn check_filter_runs_only_the_selected_check() {
        // OltAliasing corrupts LM lookups, which the oracle check
        // catches — but a campaign filtered to mmap-identity must stay
        // blind to it (the mutation never touches the bundle path).
        let mut oracle_seen = false;
        for i in 0..12 {
            let spec = CaseSpec::derive(0xB00, i);
            let full = run_case_caught(&spec, Mutation::OltAliasing);
            let mmap_only =
                run_case_caught_filtered(&spec, Mutation::OltAliasing, Some(CheckId::MmapIdentity));
            assert_eq!(
                mmap_only, None,
                "case {i}: mmap-identity never sees OltAliasing"
            );
            if full.as_ref().is_some_and(|d| d.check == CheckId::Oracle) {
                oracle_seen = true;
            }
        }
        assert!(
            oracle_seen,
            "the unfiltered matrix should catch OltAliasing"
        );
    }

    #[test]
    fn stale_checksum_is_rejected_typed() {
        let spec = CaseSpec::derive(0xC4C, 0);
        let d = run_case_caught(&spec, Mutation::StaleChecksum)
            .expect("a stale checksum must surface as a divergence");
        assert_eq!(d.check, CheckId::MmapIdentity);
        assert!(
            d.detail.contains("rejected at owned open"),
            "want the typed rejection, got: {}",
            d.detail
        );
        assert!(
            d.detail.contains("mmap model binding"),
            "want the mapped path's typed rejection too, got: {}",
            d.detail
        );
    }

    #[test]
    fn names_round_trip() {
        for c in [
            CheckId::Oracle,
            CheckId::SoaIdentity,
            CheckId::OltIdentity,
            CheckId::ScratchReuse,
            CheckId::Streaming,
            CheckId::Jobs,
            CheckId::CompressRoundtrip,
            CheckId::MmapIdentity,
            CheckId::TwoPass,
            CheckId::SimReplay,
            CheckId::LatticeOracle,
            CheckId::BiasOracle,
            CheckId::Panic,
        ] {
            assert_eq!(CheckId::parse(c.name()), Some(c));
        }
        for m in [
            Mutation::None,
            Mutation::OltAliasing,
            Mutation::FreeBackoff,
            Mutation::StaleChecksum,
            Mutation::LatticeBeamSkip,
            Mutation::BiasBonusSkip,
        ] {
            assert_eq!(Mutation::parse(m.name()), Some(m));
        }
        assert_eq!(Mutation::parse("bogus"), None);
    }
}
