//! Registry churn under live decode traffic.
//!
//! Eight sessions decode on real worker threads while another thread
//! hammers the server's model registries: hot-adding and retiring LMs
//! and biasing models, including hot-swapping the very entries the
//! running sessions were admitted with. The pinned-at-admission
//! contract says none of that may be observable from inside a session:
//!
//! * every surviving session's transcript is bit-identical to a
//!   standalone decode against the models it was admitted with;
//! * every lease a session ever ran carries the same `(lm_gen,
//!   bias_gen)` stamp pair — no quantum of a session ever decoded
//!   against a swapped-in model;
//! * generation stamps are never lost to the churn: distinct stamp
//!   pairs appear for distinctly-admitted sessions, and biased
//!   sessions carry a nonzero bias stamp.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use unfold_am::{build_am, synthesize_utterance, HmmTopology, Lexicon, NoiseModel, Utterance};
use unfold_bias::{BiasedLm, BiasingFst};
use unfold_decoder::{DecodeConfig, DecodeResult, NullSink, OtfDecoder};
use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
use unfold_obs::ObsRecord;
use unfold_serve::{FrameInput, ServeConfig, Server};
use unfold_wfst::Wfst;

const VOCAB: u32 = 50;

fn train_lm(seed: u64) -> Arc<Wfst> {
    let spec = CorpusSpec {
        vocab_size: VOCAB as usize,
        num_sentences: 300,
        ..Default::default()
    };
    let model = NGramModel::train(
        &spec.generate(seed),
        VOCAB as usize,
        DiscountConfig::default(),
    );
    Arc::new(lm_to_wfst(&model))
}

fn utt(lex: &Lexicon, words: &[u32], seed: u64) -> Utterance {
    synthesize_utterance(
        words,
        lex,
        HmmTopology::Kaldi3State,
        &NoiseModel::default(),
        seed,
    )
}

#[test]
fn registry_churn_never_touches_admitted_sessions() {
    let lex = Lexicon::generate(VOCAB as usize, 20, 6);
    let am = Arc::new(build_am(&lex, HmmTopology::Kaldi3State).fst);
    let lm_a = train_lm(3);
    let lm_b = train_lm(17);
    let users: Vec<Arc<BiasingFst>> = (0..4)
        .map(|u| Arc::new(BiasingFst::mint(0xB1A5 ^ u, VOCAB, 5)))
        .collect();

    let word_seqs: [&[u32]; 8] = [
        &[3, 9, 17],
        &[7, 11, 4],
        &[22, 5],
        &[14, 30, 8],
        &[2, 40, 6],
        &[19, 25],
        &[33, 1, 12],
        &[44, 10, 28],
    ];
    let utts: Vec<Utterance> = word_seqs
        .iter()
        .enumerate()
        .map(|(i, w)| utt(&lex, w, 70 + i as u64))
        .collect();

    // Session i: LM alternates default/alt, even sessions are biased
    // with user i/2 mod 4. Standalone expectations pin bit-identity.
    let base = DecodeConfig::default();
    let standalone: Vec<DecodeResult> = utts
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let lm = if i % 2 == 0 { &lm_a } else { &lm_b };
            if i % 2 == 0 {
                let biased = BiasedLm::new(&**lm, &users[(i / 2) % 4]);
                OtfDecoder::new(base).decode(&*am, &biased, &u.scores, &mut NullSink)
            } else {
                OtfDecoder::new(base).decode(&*am, &**lm, &u.scores, &mut NullSink)
            }
        })
        .collect();

    let server = Server::start_multi(
        ServeConfig {
            workers: 2,
            quantum_frames: 8,
            olt_entries: 1_024,
            base,
            ..Default::default()
        },
        Arc::clone(&am),
        vec![
            ("default".to_string(), Arc::clone(&lm_a)),
            ("alt".to_string(), Arc::clone(&lm_b)),
        ],
    );
    let handle = server.handle();
    for (u, fst) in users.iter().enumerate() {
        assert!(handle
            .add_bias(&format!("user-{u}"), Arc::clone(fst))
            .is_none());
    }

    // The churn thread runs for the whole decode window: hot-swap the
    // in-use LM and bias names (admitted sessions must keep their
    // pinned Arcs), plus add/retire throwaway entries.
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let handle = handle.clone();
        let stop = Arc::clone(&stop);
        let lm_b = Arc::clone(&lm_b);
        let users = users.clone();
        std::thread::spawn(move || {
            let mut swaps = 0u64;
            // Post-check loop: at least one churn pass always runs,
            // even if the decodes finish before this thread spins up.
            loop {
                // Hot-swap model names sessions are actively using.
                // Content-identical handles keep the standalone
                // expectations valid for sessions that race the swap
                // and pin the *new* entry; the generation stamp still
                // advances, which is what the span checks pin down.
                handle.add_lm("alt", Arc::clone(&lm_b));
                handle.add_bias(
                    &format!("user-{}", swaps % 4),
                    Arc::clone(&users[(swaps % 4) as usize]),
                );
                // Add-then-retire churn entries.
                handle.add_lm("churn", Arc::clone(&lm_b));
                handle.retire_lm("churn").expect("churn LM present");
                handle.add_bias("churn-bias", Arc::new(BiasingFst::mint(swaps, VOCAB, 2)));
                handle
                    .retire_bias("churn-bias")
                    .expect("churn bias present");
                swaps += 1;
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            swaps
        })
    };

    let joins: Vec<_> = utts
        .iter()
        .enumerate()
        .map(|(i, u)| {
            let handle = handle.clone();
            let frames: Vec<FrameInput> = (0..u.scores.num_frames())
                .map(|t| FrameInput::Scores(u.scores.frame(t).to_vec()))
                .collect();
            std::thread::spawn(move || {
                let lm = if i % 2 == 0 {
                    Some("default")
                } else {
                    Some("alt")
                };
                let bias = (i % 2 == 0).then(|| format!("user-{}", (i / 2) % 4));
                let id = handle.open_with_models(lm, bias.as_deref()).expect("admit");
                for frame in frames {
                    handle.ingest_frame(id, frame).expect("push");
                }
                handle.finish(id).expect("finish");
                let res = handle
                    .wait_result(id, Duration::from_secs(60))
                    .expect("known")
                    .expect("no timeout");
                (id, res)
            })
        })
        .collect();
    let results: Vec<(u64, DecodeResult)> = joins.into_iter().map(|j| j.join().unwrap()).collect();
    stop.store(true, Ordering::Relaxed);
    let swaps = churn.join().unwrap();
    assert!(swaps > 0, "churn thread must have actually churned");

    // Bit-identity of the survivors, despite their models having been
    // hot-swapped out of the registry mid-decode.
    for ((_, served), alone) in results.iter().zip(&standalone) {
        assert_eq!(served.words, alone.words);
        assert_eq!(served.cost.to_bits(), alone.cost.to_bits());
        assert_eq!(served.stats.frames, alone.stats.frames);
    }

    // Per-session stamp stability, from the lease spans: a session's
    // quanta must all carry the one (lm_gen, bias_gen) pair it was
    // admitted with, and stamps must separate the distinct models.
    let spans = handle.spans_jsonl();
    let mut by_session: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for line in spans.lines() {
        let Ok(ObsRecord::SessionSpan(s)) = ObsRecord::parse_line(line) else {
            continue;
        };
        if s.stage != "lease" {
            continue;
        }
        let attr = |name: &str| {
            s.attrs
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v as u64)
        };
        let (Some(lm_gen), Some(bias_gen)) = (attr("lm_gen"), attr("bias_gen")) else {
            panic!("lease span missing generation stamps: {line}");
        };
        by_session
            .entry(s.session)
            .or_default()
            .push((lm_gen, bias_gen));
    }
    for (id, _) in &results {
        let stamps = &by_session[id];
        assert!(
            stamps.windows(2).all(|w| w[0] == w[1]),
            "session {id} observed more than one model generation: {stamps:?}"
        );
    }
    // Even sessions were biased (bias stamps share the LM counter and
    // start past it, so 0 never appears for them); odd ones were not.
    for (i, (id, _)) in results.iter().enumerate() {
        let (_, bias_gen) = by_session[id][0];
        if i % 2 == 0 {
            assert!(bias_gen >= 2, "biased session {id} lost its bias stamp");
        } else {
            assert_eq!(bias_gen, 0, "unbiased session {id} grew a bias stamp");
        }
    }
    // The four distinct biasing users admitted before the churn carry
    // four distinct stamps.
    let mut bias_stamps: Vec<u64> = results
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 2 == 0)
        .map(|(_, (id, _))| by_session[id][0].1)
        .collect();
    bias_stamps.sort_unstable();
    bias_stamps.dedup();
    assert_eq!(bias_stamps.len(), 4, "a biasing generation stamp was lost");

    server.shutdown();
}
