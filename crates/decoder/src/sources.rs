//! Model sources: the decoder's view of AM and LM storage.
//!
//! The search algorithm is identical whether the models live in the
//! uncompressed 128-bit-per-arc layout or the bit-packed compressed
//! formats — what changes is the *memory addresses* each fetch touches
//! (and, for compressed models, the quantized weights). These traits
//! abstract exactly that, so one decoder implementation serves both the
//! baseline and UNFOLD configurations, and the simulator sees realistic
//! address streams for each.
//!
//! The LM interface is deliberately low-level: a single-state
//! [`LmSource::lookup_word`] plus [`LmSource::backoff`], because the
//! *decoder* owns the back-off walk — that is where the paper's
//! preemptive pruning (§3.3) intervenes, abandoning a hypothesis between
//! hops.

use unfold_compress::{CompressedAm, CompressedLm};
use unfold_wfst::{Arc, Label, StateId, Wfst, EPSILON};

/// Address-space bases for the flat memory map the simulator models.
/// Regions are disjoint by construction (1 GiB apart), matching the
/// paper's observation that "the AM and LM datasets are disjoint".
pub mod addr {
    /// AM state records.
    pub const AM_STATE_BASE: u64 = 0x0000_0000;
    /// AM arc array / bit stream.
    pub const AM_ARC_BASE: u64 = 0x4000_0000;
    /// LM state records.
    pub const LM_STATE_BASE: u64 = 0x8000_0000;
    /// LM arc array / bit stream.
    pub const LM_ARC_BASE: u64 = 0xC000_0000;
    /// Token / word-lattice writes (sequential).
    pub const TOKEN_BASE: u64 = 0x1_0000_0000;
    /// Bytes per state record (uncompressed and compressed layouts):
    /// the record the compressed sections store.
    pub const STATE_RECORD_BYTES: u64 = unfold_compress::STATE_RECORD_BYTES as u64;
}

/// One arc visit: the decoded arc plus where its bytes live.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArcVisit {
    /// The arc.
    pub arc: Arc,
    /// Byte address of the arc record.
    pub addr: u64,
    /// Record size in bytes (rounded up for sub-byte records).
    pub bytes: u32,
}

/// A memory fetch: `(byte address, bytes)`.
pub type Fetch = (u64, u32);

/// Longest back-off chain a well-formed LM may have; enforced once per
/// model by [`crate::scratch::validate_models`] (for a compressed LM,
/// already at bind) and assumed (via `debug_assert!`) by the decoder's
/// hot path.
pub use unfold_compress::MAX_BACKOFF_HOPS;

/// The AM side of decoding: sequential arc exploration.
pub trait AmSource {
    /// Start state.
    fn start(&self) -> StateId;
    /// Number of states (model-validation sweeps).
    fn num_states(&self) -> usize;
    /// Final weight of `s`.
    fn final_weight(&self, s: StateId) -> Option<f32>;
    /// Address of the state record of `s`.
    fn state_addr(&self, s: StateId) -> u64;
    /// Visits every outgoing arc of `s` in storage order.
    fn for_each_arc(&self, s: StateId, f: &mut dyn FnMut(ArcVisit));
    /// Whether each state, in state order, has an ε-input arc. The
    /// default scans every arc; a compressed AM reads the bits its
    /// state records carry.
    fn eps_flags(&self) -> Vec<bool> {
        (0..self.num_states() as StateId)
            .map(|s| {
                let mut eps = false;
                self.for_each_arc(s, &mut |v| eps |= v.arc.ilabel == EPSILON);
                eps
            })
            .collect()
    }
    /// Best-effort cache hint that `s`'s arcs are about to be walked.
    /// A pure hint: no trace events, no effect on decode output, never
    /// panics. The SoA kernel issues these over its batched probe
    /// buffer before expansion; default is a no-op.
    fn prefetch_state(&self, _s: StateId) {}
    /// The largest PDF id on any arc (0 if none emits): the narrowest
    /// score row this AM decodes. The default sweeps every arc, O(model)
    /// a call; a compressed AM answers from the fact its bind-time walk
    /// recorded, which is what lets serve read it at every ingest.
    fn max_pdf(&self) -> usize {
        let mut max = 0;
        for s in 0..self.num_states() as StateId {
            self.for_each_arc(s, &mut |v| max = max.max(v.arc.ilabel as usize));
        }
        max
    }
}

/// Result of a single-state LM word lookup.
#[derive(Debug, Clone)]
pub struct LmLookupResult {
    /// The matching word arc, if this state has one.
    pub arc: Option<Arc>,
    /// The arc fetches (binary-search probes) the lookup performed.
    pub probes: Vec<Fetch>,
}

/// The LM side of decoding: word lookup with explicit back-off arcs.
pub trait LmSource {
    /// Start (root) state.
    fn start(&self) -> StateId;
    /// Number of states (model-validation sweeps).
    fn num_states(&self) -> usize;
    /// Address of the state record of `s`.
    fn state_addr(&self, s: StateId) -> u64;
    /// Searches `s` for an arc labelled `word` (binary search over the
    /// sorted word arcs; O(1) at the root of a layout-conforming LM),
    /// appending each arc fetch (binary-search probe) to `probes`. The
    /// caller-owned buffer is what keeps the decoder's steady-state
    /// frame loop allocation-free.
    fn lookup_word_into(&self, s: StateId, word: Label, probes: &mut Vec<Fetch>) -> Option<Arc>;
    /// The back-off arc of `s` and its fetch, if the state has one.
    fn backoff(&self, s: StateId) -> Option<(Arc, Fetch)>;
    /// Best-effort cache hint that `s` is about to be searched. A pure
    /// hint: no trace events, no effect on decode output, never panics.
    /// Default is a no-op.
    fn prefetch_state(&self, _s: StateId) {}

    // --- Memo-composition hooks (on-the-fly biasing). -------------
    //
    // A composing adapter (e.g. a per-session biasing layer) carries a
    // private context component inside each `StateId` it hands the
    // decoder. The back-off walk splits that context off once, walks
    // *base* states (so the shared one-label-transition table stays
    // valid across sessions), and re-joins the context at resolution.
    // Plain LMs have no context: the defaults are pure identities and
    // the walk compiles to exactly the un-composed code.

    /// Splits a decoder-visible state into `(base state, context)`.
    /// Identity (`ctx == 0`) for plain LMs.
    fn memo_split(&self, s: StateId) -> (StateId, u32) {
        (s, 0)
    }

    /// Packs a context back onto a base state, producing the key the
    /// per-session memo layer caches under. Identity for plain LMs.
    fn memo_pack(&self, _ctx: u32, base: StateId) -> StateId {
        base
    }

    /// Joins a resolved base transition with the context: returns the
    /// composite destination and the final (possibly biased) word-arc
    /// weight. Identity for plain LMs — no arithmetic is performed, so
    /// un-composed decodes stay bit-identical.
    fn memo_join(&self, _ctx: u32, _word: Label, dest: StateId, weight: f32) -> (StateId, f32) {
        (dest, weight)
    }

    /// Whether this source carries a memo context (i.e. composite
    /// states whose resolutions are worth caching per session). Plain
    /// LMs return `false`, which keeps the per-session cache untouched
    /// on unbiased decodes.
    fn has_memo_ctx(&self) -> bool {
        false
    }

    /// The longest back-off chain from any state, counted up to
    /// `MAX_BACKOFF_HOPS + 1` (so a cyclic chain reads as one past the
    /// bound). The default follows every state's chain; a compressed
    /// LM answers from the fact its bind-time walk recorded.
    fn max_backoff_hops(&self) -> u32 {
        (0..self.num_states() as StateId)
            .map(|s| {
                std::iter::successors(self.backoff(s), |(back, _)| self.backoff(back.nextstate))
                    .take(MAX_BACKOFF_HOPS as usize + 1)
                    .count() as u32
            })
            .max()
            .unwrap_or(0)
    }

    /// Stable address identifying the *validated* model. Composing
    /// adapters forward their base LM's address so a cheap per-quantum
    /// wrapper does not re-trigger full model validation sweeps.
    fn validation_addr(&self) -> usize {
        std::ptr::from_ref(self).cast::<()>() as usize
    }

    /// Allocating convenience wrapper over
    /// [`LmSource::lookup_word_into`].
    fn lookup_word(&self, s: StateId, word: Label) -> LmLookupResult {
        let mut probes = Vec::new();
        let arc = self.lookup_word_into(s, word, &mut probes);
        LmLookupResult { arc, probes }
    }

    /// Full back-off resolution (reference semantics; the decoder runs
    /// its own walk so it can prune preemptively). Returns
    /// `(destination, cost, backoff_hops)`.
    fn resolve(&self, s: StateId, word: Label) -> Option<LmResolution> {
        let mut state = s;
        let mut cost = 0.0f32;
        let mut hops = 0u32;
        let mut fetches = 0u64;
        let mut probes = Vec::new();
        loop {
            probes.clear();
            let arc = self.lookup_word_into(state, word, &mut probes);
            fetches += probes.len() as u64;
            if let Some(arc) = arc {
                return Some(LmResolution {
                    dest: arc.nextstate,
                    cost: cost + arc.weight,
                    backoff_hops: hops,
                    fetches,
                });
            }
            let (back, _) = self.backoff(state)?;
            fetches += 1;
            cost += back.weight;
            state = back.nextstate;
            hops += 1;
            if hops > MAX_BACKOFF_HOPS {
                return None;
            }
        }
    }
}

/// Outcome of [`LmSource::resolve`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmResolution {
    /// Destination LM state.
    pub dest: StateId,
    /// Total LM cost (word arc + traversed back-off weights).
    pub cost: f32,
    /// Back-off arcs traversed.
    pub backoff_hops: u32,
    /// Total arc fetches performed.
    pub fetches: u64,
}

// --- Uncompressed implementations. ---

impl AmSource for Wfst {
    fn start(&self) -> StateId {
        Wfst::start(self)
    }

    fn num_states(&self) -> usize {
        Wfst::num_states(self)
    }

    fn final_weight(&self, s: StateId) -> Option<f32> {
        Wfst::final_weight(self, s)
    }

    fn state_addr(&self, s: StateId) -> u64 {
        addr::AM_STATE_BASE + u64::from(s) * addr::STATE_RECORD_BYTES
    }

    fn for_each_arc(&self, s: StateId, f: &mut dyn FnMut(ArcVisit)) {
        let base = addr::AM_ARC_BASE + self.arc_base_offset(s);
        for (i, &arc) in self.arcs(s).iter().enumerate() {
            f(ArcVisit {
                arc,
                addr: base + i as u64 * 16,
                bytes: 16,
            });
        }
    }

    fn prefetch_state(&self, s: StateId) {
        if (s as usize) < Wfst::num_states(self) {
            unfold_compress::prefetch_read(self.arcs(s).as_ptr().cast());
        }
    }
}

impl LmSource for Wfst {
    fn start(&self) -> StateId {
        Wfst::start(self)
    }

    fn num_states(&self) -> usize {
        Wfst::num_states(self)
    }

    fn state_addr(&self, s: StateId) -> u64 {
        addr::LM_STATE_BASE + u64::from(s) * addr::STATE_RECORD_BYTES
    }

    fn lookup_word_into(&self, s: StateId, word: Label, probes: &mut Vec<Fetch>) -> Option<Arc> {
        debug_assert_ne!(word, EPSILON);
        let arcs = self.arcs(s);
        let mut hi = arcs.len();
        while hi > 0 && arcs[hi - 1].ilabel == EPSILON {
            hi -= 1;
        }
        let mut lo = 0usize;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes.push((
                addr::LM_ARC_BASE + self.global_arc_index(s, mid) * 16,
                16u32,
            ));
            match arcs[mid].ilabel.cmp(&word) {
                std::cmp::Ordering::Equal => return Some(arcs[mid]),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    fn backoff(&self, s: StateId) -> Option<(Arc, Fetch)> {
        let back = *self.backoff_arc(s)?;
        let idx = self.arcs(s).len() - 1;
        Some((
            back,
            (addr::LM_ARC_BASE + self.global_arc_index(s, idx) * 16, 16),
        ))
    }

    fn prefetch_state(&self, s: StateId) {
        if (s as usize) < Wfst::num_states(self) {
            unfold_compress::prefetch_read(self.arcs(s).as_ptr().cast());
        }
    }
}

/// A [`Wfst`] LM whose lookups scan arcs *linearly* — the strawman the
/// paper reports as a 10x slowdown before adopting sorted arcs + binary
/// search (§2: "Implementing the location of the arc as a linear search
/// increases the execution time by 10x"). Used by the lookup-strategy
/// ablation.
#[derive(Debug, Clone, Copy)]
pub struct LinearLm<'a>(pub &'a Wfst);

impl LmSource for LinearLm<'_> {
    fn start(&self) -> StateId {
        Wfst::start(self.0)
    }

    fn num_states(&self) -> usize {
        Wfst::num_states(self.0)
    }

    fn state_addr(&self, s: StateId) -> u64 {
        addr::LM_STATE_BASE + u64::from(s) * addr::STATE_RECORD_BYTES
    }

    fn lookup_word_into(&self, s: StateId, word: Label, probes: &mut Vec<Fetch>) -> Option<Arc> {
        let arcs = self.0.arcs(s);
        for (i, a) in arcs.iter().enumerate() {
            if a.ilabel == EPSILON {
                break; // trailing back-off arcs end the word region
            }
            probes.push((
                addr::LM_ARC_BASE + self.0.global_arc_index(s, i) * 16,
                16u32,
            ));
            if a.ilabel == word {
                return Some(*a);
            }
        }
        None
    }

    fn backoff(&self, s: StateId) -> Option<(Arc, Fetch)> {
        LmSource::backoff(self.0, s)
    }
}

// --- Compressed implementations. ---
//
// One impl per format, whatever holds the bytes (the model's own
// buffer or a shared, possibly mapped, bundle): the addresses below
// are functions of bit offsets only, so every storage decodes with the
// same fetches. Both keep the no-op prefetch hint: locating a state's
// bytes costs about as much as the hint saves on these cache-resident
// models, and four hints per survivor per frame cost `offline_ted`
// ~10 % of its frames/s when tried.

impl AmSource for CompressedAm {
    fn start(&self) -> StateId {
        CompressedAm::start(self)
    }

    fn num_states(&self) -> usize {
        CompressedAm::num_states(self)
    }

    fn final_weight(&self, s: StateId) -> Option<f32> {
        CompressedAm::final_weight(self, s)
    }

    fn state_addr(&self, s: StateId) -> u64 {
        addr::AM_STATE_BASE + u64::from(s) * addr::STATE_RECORD_BYTES
    }

    fn for_each_arc(&self, s: StateId, f: &mut dyn FnMut(ArcVisit)) {
        CompressedAm::for_each_arc(self, s, |arc, bit_off, width| {
            f(ArcVisit {
                arc,
                addr: addr::AM_ARC_BASE + bit_off / 8,
                bytes: width.div_ceil(8),
            });
        });
    }

    fn eps_flags(&self) -> Vec<bool> {
        CompressedAm::eps_flags(self).collect()
    }

    fn max_pdf(&self) -> usize {
        CompressedAm::max_pdf(self) as usize
    }
}

impl LmSource for CompressedLm {
    fn start(&self) -> StateId {
        0
    }

    fn num_states(&self) -> usize {
        CompressedLm::num_states(self)
    }

    fn state_addr(&self, s: StateId) -> u64 {
        addr::LM_STATE_BASE + u64::from(s) * addr::STATE_RECORD_BYTES
    }

    fn lookup_word_into(&self, s: StateId, word: Label, probes: &mut Vec<Fetch>) -> Option<Arc> {
        // Root: positional access, a single 6-bit fetch. Elsewhere a
        // 45-bit arc may straddle up to 7 bytes; 6 is the common case.
        let bytes = if s == 0 { 1 } else { 6 };
        self.lookup_with(s, word, |off| {
            probes.push((addr::LM_ARC_BASE + off / 8, bytes));
        })
    }

    fn backoff(&self, s: StateId) -> Option<(Arc, Fetch)> {
        let (back, off) = self.backoff_arc(s)?;
        Some((back, (addr::LM_ARC_BASE + off / 8, 4)))
    }

    fn max_backoff_hops(&self) -> u32 {
        CompressedLm::max_backoff_hops(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unfold_am::{build_am, HmmTopology, Lexicon};
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};

    fn models() -> (Wfst, Wfst) {
        let lex = Lexicon::generate(80, 25, 2);
        let am = build_am(&lex, HmmTopology::Kaldi3State);
        let spec = CorpusSpec {
            vocab_size: 80,
            num_sentences: 400,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(7), 80, DiscountConfig::default());
        (am.fst, lm_to_wfst(&model))
    }

    #[test]
    fn wfst_am_source_addresses_are_disjoint_from_lm() {
        let (am, lm) = models();
        let mut am_addrs = Vec::new();
        AmSource::for_each_arc(&am, 0, &mut |v| am_addrs.push(v.addr));
        let res = LmSource::lookup_word(&lm, 1, 5);
        for &(a, _) in &res.probes {
            assert!(a >= addr::LM_ARC_BASE);
            assert!(!am_addrs.contains(&a));
        }
    }

    #[test]
    fn wfst_resolution_matches_compose_helper() {
        let (_, lm) = models();
        for s in (0..lm.num_states() as StateId).step_by(19) {
            for w in (1..=80u32).step_by(13) {
                let want = unfold_wfst::compose::resolve_lm_word(&lm, s, w).unwrap();
                let got = LmSource::resolve(&lm, s, w).unwrap();
                assert_eq!(got.dest, want.0);
                assert!((got.cost - want.1).abs() < 1e-5);
                assert_eq!(got.backoff_hops, want.2);
                assert!(got.fetches > 0);
            }
        }
    }

    #[test]
    fn compressed_sources_agree_with_uncompressed_topology() {
        let (am, lm) = models();
        let cam = CompressedAm::compress(&am, 64, 0);
        let clm = CompressedLm::compress(&lm, 64, 0);
        for s in (0..am.num_states() as StateId).step_by(41) {
            let mut got = Vec::new();
            AmSource::for_each_arc(&cam, s, &mut |v| got.push(v.arc));
            let want = am.arcs(s);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.ilabel, w.ilabel);
                assert_eq!(g.nextstate, w.nextstate);
            }
        }
        for s in (0..lm.num_states() as StateId).step_by(23) {
            for w in (1..=80u32).step_by(17) {
                let a = LmSource::resolve(&lm, s, w).unwrap();
                let b = LmSource::resolve(&clm, s, w).unwrap();
                assert_eq!(a.dest, b.dest);
                assert_eq!(a.backoff_hops, b.backoff_hops);
            }
        }
    }

    #[test]
    fn compressed_root_lookup_is_single_probe() {
        let (_, lm) = models();
        let clm = CompressedLm::compress(&lm, 64, 0);
        let res = LmSource::lookup_word(&clm, 0, 42);
        assert_eq!(res.probes.len(), 1);
        assert_eq!(res.arc.unwrap().nextstate, 42);
    }

    #[test]
    fn binary_search_probe_count_is_logarithmic() {
        let (_, lm) = models();
        // Root has 80 word arcs in the uncompressed layout: ≤ 7 probes.
        let res = LmSource::lookup_word(&lm, 0, 80);
        assert!(res.probes.len() <= 7, "{} probes", res.probes.len());
    }

    #[test]
    fn linear_lm_agrees_with_binary_but_probes_more() {
        let (_, lm) = models();
        let lin = LinearLm(&lm);
        let mut lin_total = 0usize;
        let mut bin_total = 0usize;
        for w in 1..=80u32 {
            let a = LmSource::lookup_word(&lin, 0, w);
            let b = LmSource::lookup_word(&lm, 0, w);
            assert_eq!(a.arc.map(|x| x.nextstate), b.arc.map(|x| x.nextstate));
            lin_total += a.probes.len();
            bin_total += b.probes.len();
        }
        assert!(
            lin_total > 3 * bin_total,
            "linear {lin_total} vs binary {bin_total}"
        );
    }

    #[test]
    fn ref_sources_match_owned_fetch_for_fetch() {
        // Models bound to a bundle's bytes (no copy) fetch exactly what
        // the models owning their bytes fetch.
        let (am, lm) = models();
        let cam = CompressedAm::compress(&am, 64, 0);
        let clm = CompressedLm::compress(&lm, 64, 0);
        let mut w = unfold_compress::BundleWriter::new();
        w.add_am(&cam).add_lm("default", &clm);
        let bundle =
            std::sync::Arc::new(unfold_compress::Bundle::from_bytes(w.finish().unwrap()).unwrap());
        let ram = CompressedAm::from_bundle(std::sync::Arc::clone(&bundle)).unwrap();
        let rlm = CompressedLm::from_bundle(bundle, "default").unwrap();

        for s in (0..cam.num_states() as StateId).step_by(29) {
            let mut want = Vec::new();
            AmSource::for_each_arc(&cam, s, &mut |v| want.push(v));
            let mut got = Vec::new();
            AmSource::for_each_arc(&ram, s, &mut |v| got.push(v));
            assert_eq!(got, want, "state {s}");
            assert_eq!(
                AmSource::final_weight(&ram, s),
                AmSource::final_weight(&cam, s)
            );
        }
        assert_eq!(AmSource::start(&ram), AmSource::start(&cam));

        for s in (0..clm.num_states() as StateId).step_by(17) {
            for w in (1..=80u32).step_by(11) {
                let a = LmSource::lookup_word(&clm, s, w);
                let b = LmSource::lookup_word(&rlm, s, w);
                assert_eq!(a.arc, b.arc, "state {s} word {w}");
                assert_eq!(a.probes, b.probes, "state {s} word {w}");
            }
            assert_eq!(LmSource::backoff(&clm, s), LmSource::backoff(&rlm, s));
        }
    }

    #[test]
    fn backoff_fetch_has_lm_address() {
        let (_, lm) = models();
        let (arc, (a, _)) = LmSource::backoff(&lm, 3).unwrap();
        assert_eq!(arc.ilabel, EPSILON);
        assert!(a >= addr::LM_ARC_BASE);
    }
}
