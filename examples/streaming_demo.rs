//! Live decoding with the streaming API: frames arrive one at a time
//! (as from a microphone), partial hypotheses are available after every
//! push, and the final result is identical to batch decoding — the
//! property the paper's GPU/accelerator batch pipeline (§5.2) rests on.
//!
//! Run with: `cargo run --release -p unfold-examples --bin streaming_demo`

use unfold::{System, TaskSpec};
use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder, StreamSession, WorkScratch};

fn main() {
    let system = System::build(&TaskSpec::tiny());
    let (am, lm) = (&system.am_comp, &system.lm_comp);
    let utt = &system.test_utterances(1)[0];
    println!(
        "streaming {} frames; ground truth {:?}\n",
        utt.scores.num_frames(),
        utt.words
    );

    // The session holds the search state; the scratch is the frame
    // loop's working memory, reused across pushes.
    let config = DecodeConfig::default();
    let mut work = WorkScratch::new();
    work.begin(&config);
    let mut session = StreamSession::new(config);
    session.seed(am, lm, &mut work, &mut NullSink);
    let mut last_partial = Vec::new();
    for t in 0..utt.scores.num_frames() {
        session.push_frame(am, lm, &mut work, utt.scores.frame(t), &mut NullSink);
        let partial = session.partial_result();
        if partial != last_partial {
            println!(
                "frame {t:>3} ({} active): {partial:?}",
                session.num_active()
            );
            last_partial = partial;
        }
    }
    let streamed = session.finalize(am, &mut NullSink);

    // Cross-check against the one-shot decoder.
    let batch = OtfDecoder::new(config).decode(am, lm, &utt.scores, &mut NullSink);
    println!(
        "\nstreamed: {:?} (cost {:.2})",
        streamed.words, streamed.cost
    );
    println!("batch   : {:?} (cost {:.2})", batch.words, batch.cost);
    assert_eq!(streamed.words, batch.words);
    assert_eq!(streamed.cost, batch.cost);
    println!("streaming and batch decoding agree exactly.");
}
