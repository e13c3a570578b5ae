//! Seeded inputs. The models are fixed by the task; the seed draws the
//! utterance text, the acoustic noise and the arrival jitter, nothing else.

use std::path::{Path, PathBuf};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::api::{self, Generator, Utt};

/// Everything one workload run decodes, plus the bundle on disk the
/// program opens.
pub struct Inputs {
    pub gen: Generator,
    pub utts: Vec<Utt>,
    pub bundle: PathBuf,
    /// The seed everything above was drawn from.
    pub seed: u64,
    /// Words per utterance.
    pub words: usize,
    /// The held-out sentences long enough to draw from.
    texts: Vec<usize>,
}

/// Runs `f` over `0..n` on two threads (this box has two cores; the
/// harness itself stays within them) and returns the results in order.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let mid = n / 2;
    let (mut lo, hi) = std::thread::scope(|s| {
        let hi = s.spawn(|| (mid..n).map(&f).collect::<Vec<T>>());
        let lo: Vec<T> = (0..mid).map(&f).collect();
        (lo, hi.join().expect("input generation does not panic"))
    });
    lo.extend(hi);
    lo
}

impl Inputs {
    /// Packs `gen`'s models to `<out>/<name>.unfb` and synthesizes `n`
    /// utterances of exactly `words` words: held-out
    /// sentences at least that long, in a seeded order, cut to length. Equal lengths keep a
    /// session's latency from being a draw of its length, so a median over
    /// sessions moves with the program and not with the seed.
    pub fn draw(
        gen: Generator,
        seed: u64,
        n: usize,
        words: usize,
        out: &Path,
        name: &str,
    ) -> Inputs {
        std::fs::create_dir_all(out).expect("create the output directory inside the checkout");
        let bundle = out.join(format!("{name}.unfb"));
        gen.write_bundle(&bundle);
        let texts = gen.texts_of(words);
        assert!(!texts.is_empty(), "no held-out sentence has {words} words");
        let mut rng = SmallRng::seed_from_u64(seed);
        // The seed shuffles the eligible sentences and the inputs cycle
        // through them, so each is spoken equally often, give or take
        // once. Drawing them independently let the seed decide how many
        // hard sentences a run met, which moved `wer_pct` 23 % from seed
        // to seed on `serve_tcp_feat`.
        let mut order = texts.clone();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let picks: Vec<(usize, u64)> = (0..n)
            .map(|i| (order[i % order.len()], rng.gen::<u64>()))
            .collect();
        let utts = par_map(n, |i| gen.utterance(picks[i].0, words, picks[i].1));
        Inputs {
            gen,
            utts,
            bundle,
            seed,
            words,
            texts,
        }
    }

    /// How many held-out sentences the seed draws from.
    pub fn eligible(&self) -> usize {
        self.texts.len()
    }

    pub fn total_frames(&self) -> u64 {
        self.utts.iter().map(|u| u.num_frames() as u64).sum()
    }
}

/// Arrival times in nanoseconds for `n` sessions at `rate` per second:
/// a fixed mean gap, each stretched or shrunk by up to half, seeded.
pub fn arrivals(seed: u64, n: usize, rate: f64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA221_7A15);
    let gap_ns = 1e9 / rate;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            at += gap_ns * rng.gen_range(0.5..1.5);
            at as u64
        })
        .collect()
}

/// FNV-1a over a transcript and the bits of its cost.
pub fn transcript_hash(words: &[u32], cost: f32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u32| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    words.iter().copied().for_each(&mut eat);
    eat(cost.to_bits());
    h
}

/// The oracle results for the inputs, in order; `bias_of` names the
/// minted user (if any) input `i` is decoded for. An utterance whose
/// oracle search reaches no final state is redrawn (same seed, next
/// draw) until it does: the workloads hold no operation that fails.
pub fn references(
    models: &api::Models,
    inputs: &mut Inputs,
    bias_of: impl Fn(usize) -> Option<usize> + Sync,
) -> Vec<api::DecodeResult> {
    let vocab = inputs.gen.vocab();
    let decode = |utt: &Utt, i: usize| {
        let bias = bias_of(i).map(|user| api::mint_bias(user, vocab));
        api::reference_decode(models, utt, bias.as_deref())
    };
    let mut refs = par_map(inputs.utts.len(), |i| decode(&inputs.utts[i], i));
    for (i, oracle) in refs.iter_mut().enumerate() {
        let mut rng = SmallRng::seed_from_u64(
            inputs.seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        while !oracle.cost.is_finite() {
            let text = inputs.texts[rng.gen_range(0..inputs.texts.len())];
            inputs.utts[i] = inputs.gen.utterance(text, inputs.words, rng.gen::<u64>());
            *oracle = decode(&inputs.utts[i], i);
        }
    }
    refs
}

/// A scratch directory for one test, under the ignored `benchmark/out`.
#[cfg(test)]
pub fn test_dir(tag: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{tag}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Task;

    fn shape(inputs: &Inputs) -> Vec<(Vec<u32>, usize)> {
        inputs
            .utts
            .iter()
            .map(|u| (u.words().to_vec(), u.num_frames()))
            .collect()
    }

    #[test]
    fn the_seed_draws_the_inputs_and_nothing_else_does() {
        let out = test_dir("inputs");
        let a = Inputs::draw(Generator::build(Task::Tiny), 1, 12, 12, &out, "a");
        let b = Inputs::draw(Generator::build(Task::Tiny), 1, 12, 12, &out, "b");
        let c = Inputs::draw(Generator::build(Task::Tiny), 2, 12, 12, &out, "c");
        assert_eq!(shape(&a), shape(&b));
        assert_eq!(a.utts[3].row(0), b.utts[3].row(0));
        assert_ne!(shape(&a), shape(&c));
        // The models do not move with the seed.
        assert_eq!(
            std::fs::read(&a.bundle).unwrap(),
            std::fs::read(&c.bundle).unwrap()
        );
        assert_eq!(arrivals(1, 50, 200.0), arrivals(1, 50, 200.0));
        assert_ne!(arrivals(1, 50, 200.0), arrivals(2, 50, 200.0));
        std::fs::remove_dir_all(&out).ok();
    }

    #[test]
    fn arrivals_hold_the_pinned_rate() {
        let at = arrivals(9, 10_000, 200.0);
        assert!(at.windows(2).all(|w| w[0] < w[1]));
        let rate = 10_000.0 / (*at.last().unwrap() as f64 / 1e9);
        assert!((rate - 200.0).abs() < 4.0, "rate {rate}");
    }
}
