//! Delta-debugging shrinker for diverging cases.
//!
//! Rather than deleting states and arcs from built WFSTs (which would
//! produce models violating the layout invariants the decoder relies
//! on), the shrinker minimizes the *generator spec*: every candidate is
//! rebuilt through the same `unfold-am`/`unfold-lm` pipeline as the
//! original, so the minimized case is always a well-formed model the
//! whole toolchain accepts — and a [`crate::ReproCase`] file stays a
//! few lines of knobs instead of a serialized FST.

use crate::case::{CaseModels, CaseSpec};
use crate::check::{run_case_caught_filtered, CheckId, Divergence, Mutation};

/// Hard cap on candidate evaluations per shrink (each evaluation
/// rebuilds the models and decodes the full matrix).
const MAX_EVALS: usize = 200;

/// Result of shrinking one diverging case.
#[derive(Debug, Clone)]
pub struct ShrinkOutcome {
    /// The minimized spec (still diverging on the same check).
    pub spec: CaseSpec,
    /// The divergence the minimized spec produces.
    pub divergence: Divergence,
    /// Accepted shrink steps.
    pub steps: usize,
    /// Candidate evaluations spent.
    pub evals: usize,
    /// LM states in the minimized model.
    pub lm_states: usize,
    /// AM states in the minimized model.
    pub am_states: usize,
    /// Frames in the minimized utterance.
    pub frames: usize,
}

/// One shrinking move: a named transformation of the spec. Returns
/// `None` when the move does not apply (already minimal in that
/// dimension).
type Move = fn(&CaseSpec) -> Option<CaseSpec>;

fn drop_last_word(s: &CaseSpec) -> Option<CaseSpec> {
    if s.words.is_empty() {
        return None;
    }
    let mut t = s.clone();
    t.words.pop();
    Some(t)
}

fn drop_first_word(s: &CaseSpec) -> Option<CaseSpec> {
    if s.words.len() < 2 {
        return None;
    }
    let mut t = s.clone();
    t.words.remove(0);
    Some(t)
}

fn halve_frames(s: &CaseSpec) -> Option<CaseSpec> {
    if s.words.is_empty() {
        return None;
    }
    let current = s.max_frames;
    let next = match current {
        usize::MAX => 16,
        n if n > 1 => n / 2,
        _ => return None,
    };
    let mut t = s.clone();
    t.max_frames = next;
    Some(t)
}

fn shrink_vocab(s: &CaseSpec) -> Option<CaseSpec> {
    if s.vocab_size <= 4 {
        return None;
    }
    let mut t = s.clone();
    t.vocab_size = (s.vocab_size / 2).max(4);
    // Re-clamp truth words into the smaller vocabulary.
    for w in &mut t.words {
        *w = ((*w - 1) % t.vocab_size as u32) + 1;
    }
    Some(t)
}

fn shrink_sentences(s: &CaseSpec) -> Option<CaseSpec> {
    if s.sentences <= 20 {
        return None;
    }
    let mut t = s.clone();
    t.sentences = (s.sentences / 2).max(20);
    Some(t)
}

fn shrink_phonemes(s: &CaseSpec) -> Option<CaseSpec> {
    if s.phonemes <= 4 {
        return None;
    }
    let mut t = s.clone();
    t.phonemes = (s.phonemes / 2).max(4);
    Some(t)
}

fn force_unigram_only(s: &CaseSpec) -> Option<CaseSpec> {
    if s.min_bigram_count == u64::MAX && s.min_trigram_count == u64::MAX {
        return None;
    }
    let mut t = s.clone();
    t.min_bigram_count = u64::MAX;
    t.min_trigram_count = u64::MAX;
    Some(t)
}

fn drop_weight_grid(s: &CaseSpec) -> Option<CaseSpec> {
    if s.weight_grid == 0.0 {
        return None;
    }
    let mut t = s.clone();
    t.weight_grid = 0.0;
    Some(t)
}

fn calm_noise(s: &CaseSpec) -> Option<CaseSpec> {
    if s.noise_sigma <= 0.05 && s.word_confusion == 0.0 {
        return None;
    }
    let mut t = s.clone();
    t.noise_sigma = 0.05;
    t.word_confusion = 0.0;
    Some(t)
}

/// The move schedule: cheap/high-leverage reductions first.
const MOVES: &[Move] = &[
    drop_last_word,
    drop_first_word,
    halve_frames,
    shrink_vocab,
    force_unigram_only,
    shrink_sentences,
    shrink_phonemes,
    drop_weight_grid,
    calm_noise,
];

/// Minimizes `spec` while `mutation` still makes the *same check*
/// diverge, greedily applying `MOVES` to a fixpoint. Returns `None`
/// if the original spec does not diverge at all (nothing to shrink).
/// When `only` restricts the matrix to one check, every candidate
/// evaluation is restricted the same way.
pub fn shrink(spec: &CaseSpec, mutation: Mutation, only: Option<CheckId>) -> Option<ShrinkOutcome> {
    let original = run_case_caught_filtered(spec, mutation, only)?;
    let target: CheckId = original.check;
    let mut best = spec.clone();
    let mut best_div = original;
    let mut steps = 0;
    let mut evals = 1;

    // Greedy descent: retry the whole move schedule until a full pass
    // accepts nothing (fixpoint) or the evaluation budget runs out.
    loop {
        let mut improved = false;
        for mv in MOVES {
            // Re-apply a single move repeatedly while it keeps working
            // (e.g. keep dropping words one by one).
            while evals < MAX_EVALS {
                let Some(candidate) = mv(&best) else { break };
                evals += 1;
                match run_case_caught_filtered(&candidate, mutation, only) {
                    Some(d) if d.check == target => {
                        best = candidate;
                        best_div = d;
                        steps += 1;
                        improved = true;
                    }
                    _ => break,
                }
            }
            if evals >= MAX_EVALS {
                break;
            }
        }
        if !improved || evals >= MAX_EVALS {
            break;
        }
    }

    let m = CaseModels::build(&best);
    Some(ShrinkOutcome {
        lm_states: m.lm_fst.num_states(),
        am_states: m.am.fst.num_states(),
        frames: m.utt.scores.num_frames(),
        spec: best,
        divergence: best_div,
        steps,
        evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moves_only_simplify() {
        let spec = CaseSpec::derive(11, 3);
        for mv in MOVES {
            if let Some(t) = mv(&spec) {
                assert_ne!(t, spec, "a move must change the spec");
                assert!(t.vocab_size <= spec.vocab_size);
                assert!(t.sentences <= spec.sentences);
                assert!(t.words.len() <= spec.words.len());
            }
        }
    }

    #[test]
    fn clean_case_yields_no_outcome() {
        let spec = CaseSpec::derive(0xC1EA4, 0);
        assert!(shrink(&spec, Mutation::None, None).is_none());
    }
}
