//! The on-the-fly union-composition adapter: a borrow-based
//! [`LmSource`] scoring `base LM x biasing FST` without materializing
//! the product.
//!
//! The adapter is deliberately cheap to construct — a serving worker
//! builds one per scheduling quantum from the session's pinned base LM
//! and biasing model. Determinism holds across quanta because the
//! composite packing is derived purely from the two model sizes
//! ([`crate::CompositePacking`]), so token keys minted in one quantum
//! stay valid in the next.

use crate::{BiasingFst, CompositePacking};
use unfold_decoder::{Fetch, LmSource};
use unfold_wfst::{Arc, Label, StateId};

/// A base LM biased by a per-session [`BiasingFst`], composed on the
/// fly through the decoder's memo-composition hooks.
///
/// Base-state queries (`lookup_word_into`, `backoff`, `state_addr`)
/// delegate verbatim — the decoder's back-off walk operates on base
/// states so the *shared* one-label-transition table keeps memoizing
/// base expansions for every session at once. Composite ids appear
/// only in token keys and in the per-session memo layer, via the
/// `memo_*` hooks.
#[derive(Debug, Clone, Copy)]
pub struct BiasedLm<'a, L: LmSource + ?Sized> {
    base: &'a L,
    bias: &'a BiasingFst,
    packing: CompositePacking,
}

impl<'a, L: LmSource + ?Sized> BiasedLm<'a, L> {
    /// Wraps `base` with `bias`.
    ///
    /// # Panics
    /// Panics if the two state indices cannot share 32 bits.
    #[must_use]
    pub fn new(base: &'a L, bias: &'a BiasingFst) -> Self {
        Self {
            base,
            bias,
            packing: CompositePacking::new(base.num_states(), bias.num_states()),
        }
    }

    /// The composite packing in effect.
    #[must_use]
    pub fn packing(&self) -> CompositePacking {
        self.packing
    }

    /// The biasing model.
    #[must_use]
    pub fn bias(&self) -> &'a BiasingFst {
        self.bias
    }
}

impl<L: LmSource + ?Sized> LmSource for BiasedLm<'_, L> {
    fn start(&self) -> StateId {
        // Bias root is node 0, so the composite start *is* the base
        // start — an empty-prefix session decodes bit-identically to
        // the unbiased LM until a phrase edge fires.
        self.base.start()
    }

    fn num_states(&self) -> usize {
        self.base.num_states()
    }

    fn state_addr(&self, s: StateId) -> u64 {
        self.base.state_addr(s)
    }

    fn lookup_word_into(&self, s: StateId, word: Label, probes: &mut Vec<Fetch>) -> Option<Arc> {
        self.base.lookup_word_into(s, word, probes)
    }

    fn backoff(&self, s: StateId) -> Option<(Arc, Fetch)> {
        self.base.backoff(s)
    }

    fn max_backoff_hops(&self) -> u32 {
        // Back-off arcs are the base LM's, verbatim.
        self.base.max_backoff_hops()
    }

    fn prefetch_state(&self, s: StateId) {
        let (base, _) = self.packing.split(s);
        self.base.prefetch_state(base);
    }

    fn memo_split(&self, s: StateId) -> (StateId, u32) {
        self.packing.split(s)
    }

    fn memo_pack(&self, ctx: u32, base: StateId) -> StateId {
        self.packing.pack(ctx, base)
    }

    fn memo_join(&self, ctx: u32, word: Label, dest: StateId, weight: f32) -> (StateId, f32) {
        let (q, delta) = self.bias.step(ctx, word);
        // The offline oracle precomputes the same `apply_delta`, so
        // the two paths agree bit-for-bit.
        (
            self.packing.pack(q, dest),
            crate::apply_delta(weight, delta),
        )
    }

    fn has_memo_ctx(&self) -> bool {
        true
    }

    fn validation_addr(&self) -> usize {
        // Forward the base model's identity: the adapter is rebuilt
        // per quantum, but the validated model is the base LM.
        self.base.validation_addr()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_lm() -> unfold_wfst::Wfst {
        use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
        let spec = CorpusSpec {
            vocab_size: 30,
            num_sentences: 160,
            ..Default::default()
        };
        let model = NGramModel::train(&spec.generate(5), 30, DiscountConfig::default());
        lm_to_wfst(&model)
    }

    #[test]
    fn base_queries_delegate_verbatim() {
        let lm = base_lm();
        let bias = BiasingFst::build(&[(vec![3, 5], 2.0)]);
        let biased = BiasedLm::new(&lm, &bias);
        assert_eq!(LmSource::start(&biased), LmSource::start(&lm));
        assert_eq!(biased.num_states(), LmSource::num_states(&lm));
        for s in 0..LmSource::num_states(&lm) as StateId {
            assert_eq!(biased.state_addr(s), LmSource::state_addr(&lm, s));
            let (mut pa, mut pb) = (Vec::new(), Vec::new());
            assert_eq!(
                biased.lookup_word_into(s, 3, &mut pa),
                lm.lookup_word_into(s, 3, &mut pb)
            );
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn identity_join_off_phrase_changes_nothing() {
        let lm = base_lm();
        let bias = BiasingFst::build(&[(vec![29], 2.0)]);
        let biased = BiasedLm::new(&lm, &bias);
        // At the bias root, a non-phrase word keeps ctx 0 and weight.
        let (dest, w) = biased.memo_join(0, 7, 42, 1.25);
        assert_eq!(dest, 42);
        assert_eq!(w.to_bits(), 1.25f32.to_bits());
    }

    #[test]
    fn join_applies_exactly_one_bias_add() {
        let lm = base_lm();
        let bias = BiasingFst::build(&[(vec![7], 2.0)]);
        let biased = BiasedLm::new(&lm, &bias);
        let (q, delta) = bias.step(0, 7);
        let (dest, w) = biased.memo_join(0, 7, 42, 1.25);
        assert_eq!(dest, biased.packing().pack(q, 42));
        assert_eq!(w.to_bits(), (1.25f32 + delta).to_bits());
    }

    #[test]
    fn validation_addr_is_the_base_lm() {
        let lm = base_lm();
        let bias = BiasingFst::build(&[(vec![3], 1.0)]);
        let biased = BiasedLm::new(&lm, &bias);
        assert_eq!(biased.validation_addr(), LmSource::validation_addr(&lm));
    }
}
