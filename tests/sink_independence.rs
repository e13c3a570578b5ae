//! Observability listens, it never steers: whatever `TraceSink` rides a
//! decode, the `DecodeResult` must be bit-identical. These tests pin
//! the invariant for the batch decoder, the streaming decoder, and the
//! fully-composed baseline, across `NullSink`, `MetricsSink`, and a
//! `TeeSink` fan-out — plus a JSONL round-trip for the exported
//! telemetry itself. A `NullSink` decode runs the SoA kernel's copy
//! compiled for `NullSink` and every other sink runs the dispatching
//! copy, so the comparison also pins the two copies to each other.

use unfold::{System, TaskSpec};
use unfold_am::AcousticScores;
use unfold_bias::{BiasedLm, BiasingFst};
use unfold_decoder::{
    AmSource, CountingSink, DecodeConfig, DecodeKernel, DecodeResult, DecodeStats,
    FullyComposedDecoder, LmSource, MetricsSink, NullSink, OtfDecoder, StreamSession, TeeSink,
    TraceSink, WordLattice, WorkScratch,
};

fn assert_identical(a: &DecodeResult, b: &DecodeResult, what: &str) {
    assert_eq!(a.words, b.words, "{what}: words differ");
    assert_eq!(a.cost.to_bits(), b.cost.to_bits(), "{what}: cost differs");
    assert_eq!(a.stats, b.stats, "{what}: stats differ");
}

#[test]
fn otf_decode_is_identical_under_every_sink() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(3);
    let dec = OtfDecoder::new(DecodeConfig::default());
    for utt in &utts {
        let null = dec.decode(&system.am_comp, &system.lm_comp, &utt.scores, &mut NullSink);

        let mut metrics = MetricsSink::new();
        let with_metrics = dec.decode(&system.am_comp, &system.lm_comp, &utt.scores, &mut metrics);
        assert_identical(&null, &with_metrics, "otf metrics");
        assert_eq!(
            metrics.frames().total_seen() as usize,
            null.stats.frames,
            "metrics saw a different frame count than the decode reported"
        );

        let mut metrics = MetricsSink::new();
        let mut counting = CountingSink::default();
        let mut tee = TeeSink::new(vec![&mut metrics, &mut counting]);
        let with_tee = dec.decode(&system.am_comp, &system.lm_comp, &utt.scores, &mut tee);
        assert_identical(&null, &with_tee, "otf tee");
        assert_eq!(counting.frames, null.stats.frames);
    }
}

#[test]
fn streaming_decode_is_identical_under_every_sink() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(2);
    let config = DecodeConfig::default();

    for utt in &utts {
        let (am, lm) = (&system.am_comp, &system.lm_comp);
        let run = |sink: &mut dyn unfold_decoder::TraceSink| -> DecodeResult {
            let mut work = WorkScratch::new();
            work.begin(&config);
            let mut s = StreamSession::new(config);
            s.seed(am, lm, &mut work, sink);
            for t in 0..utt.scores.num_frames() {
                s.push_frame(am, lm, &mut work, utt.scores.frame(t), sink);
            }
            s.finalize(am, sink)
        };

        let null = run(&mut NullSink);

        let mut metrics = MetricsSink::new();
        let with_metrics = run(&mut metrics);
        assert_identical(&null, &with_metrics, "stream metrics");

        let mut metrics = MetricsSink::new();
        let mut counting = CountingSink::default();
        let mut tee = TeeSink::new(vec![&mut metrics, &mut counting]);
        let with_tee = run(&mut tee);
        assert_identical(&null, &with_tee, "stream tee");
    }
}

/// One batch `decode_lattice` and one lattice-recording stream of
/// `scores` through `sink`.
fn decode_both<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: DecodeConfig,
    am: &A,
    lm: &L,
    scores: &AcousticScores,
    sink: &mut dyn TraceSink,
) -> [(DecodeResult, WordLattice); 2] {
    let batch = OtfDecoder::new(config).decode_lattice(am, lm, scores, sink);
    let mut work = WorkScratch::new();
    work.begin(&config);
    let mut s = StreamSession::new(config);
    s.enable_lattice();
    s.seed(am, lm, &mut work, sink);
    for t in 0..scores.num_frames() {
        s.push_frame(am, lm, &mut work, scores.frame(t), sink);
    }
    [batch, s.finalize_lattice(am, sink)]
}

/// Decodes `scores` under `NullSink` (direct and erased) and under
/// every observing sink, and asserts words, cost bits, full stats and
/// the word lattice are bit-identical across all of them. Returns the
/// batch decode's stats.
fn assert_sinks_agree<A: AmSource + ?Sized, L: LmSource + ?Sized>(
    config: DecodeConfig,
    am: &A,
    lm: &L,
    scores: &AcousticScores,
    what: &str,
) -> DecodeStats {
    let null = decode_both(config, am, lm, scores, &mut NullSink);
    assert!(null[0].0.is_complete(), "{what}: decode incomplete");
    let erased: &mut dyn TraceSink = &mut NullSink;
    let mut others = vec![("erased null", decode_both(config, am, lm, scores, erased))];

    let mut metrics = MetricsSink::new();
    others.push(("metrics", decode_both(config, am, lm, scores, &mut metrics)));
    assert!(
        metrics.frames().total_seen() > 0,
        "{what}: metrics saw nothing"
    );

    let mut counting = CountingSink::default();
    others.push((
        "counting",
        decode_both(config, am, lm, scores, &mut counting),
    ));
    assert_eq!(counting.frames, 2 * null[0].0.stats.frames);

    let mut metrics = MetricsSink::new();
    let mut counting = CountingSink::default();
    let mut tee = TeeSink::new(vec![&mut metrics, &mut counting]);
    others.push(("tee", decode_both(config, am, lm, scores, &mut tee)));
    assert_eq!(counting.frames, 2 * null[0].0.stats.frames);

    for (sink, runs) in &others {
        for (path, (reference, got)) in ["batch", "stream"].iter().zip(null.iter().zip(runs)) {
            let label = format!("{what} {path} {sink}");
            assert_identical(&reference.0, &got.0, &label);
            assert!(
                reference.1.bit_identical(&got.1),
                "{label}: lattices differ"
            );
        }
    }
    null[0].0.stats
}

#[test]
fn null_sink_copy_matches_observing_sinks_on_plain_and_biased_lms() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(2);
    let phrase: Vec<u32> = utts[0].words.iter().take(2).copied().collect();
    let bias = BiasingFst::build(&[(phrase, 2.0)]);
    let biased = BiasedLm::new(&system.lm_comp, &bias);
    for olt in [0, 64, unfold_serve::ServeConfig::default().olt_entries] {
        let config = DecodeConfig::builder()
            .kernel(DecodeKernel::Soa)
            .olt_entries(olt)
            .build()
            .unwrap();
        for (i, utt) in utts.iter().enumerate() {
            let am = &system.am_comp;
            let plain = assert_sinks_agree(
                config,
                am,
                &system.lm_comp,
                &utt.scores,
                &format!("plain olt={olt} utt={i}"),
            );
            assert_eq!(plain.olt_probes > 0, olt > 0);
            let biased = assert_sinks_agree(
                config,
                am,
                &biased,
                &utt.scores,
                &format!("biased olt={olt} utt={i}"),
            );
            assert!(biased.bias_probes > 0, "the session memo is exercised");
        }
    }
}

#[test]
fn fully_composed_decode_is_identical_under_every_sink() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(2);
    let composed = system.composed();
    let dec = FullyComposedDecoder::new(DecodeConfig::default());
    for utt in &utts {
        let null = dec.decode(&composed, &utt.scores, &mut NullSink);
        let mut metrics = MetricsSink::new();
        let with_metrics = dec.decode(&composed, &utt.scores, &mut metrics);
        assert_identical(&null, &with_metrics, "full metrics");
    }
}

#[test]
fn exported_telemetry_roundtrips_through_jsonl() {
    let system = System::build(&TaskSpec::tiny());
    let utts = system.test_utterances(1);
    let dec = OtfDecoder::new(DecodeConfig::default());
    let mut metrics = MetricsSink::new();
    let result = dec.decode(
        &system.am_comp,
        &system.lm_comp,
        &utts[0].scores,
        &mut metrics,
    );

    let jsonl = metrics.to_jsonl();
    let mut frames = 0usize;
    let mut spans = 0usize;
    let mut runs = 0usize;
    for line in jsonl.lines() {
        let rec = unfold_obs::ObsRecord::parse_line(line)
            .unwrap_or_else(|e| panic!("unparseable telemetry line: {e}\n{line}"));
        // Parse → serialize → parse must be a fixed point.
        let again = unfold_obs::ObsRecord::parse_line(&rec.to_json()).unwrap();
        assert_eq!(
            rec, again,
            "telemetry record not a serialization fixed point"
        );
        match rec {
            unfold_obs::ObsRecord::Frame(f) => {
                frames += 1;
                assert!(f.active_out > 0, "decode kept tokens every frame");
            }
            unfold_obs::ObsRecord::Span(_) => spans += 1,
            unfold_obs::ObsRecord::Run(counters) => {
                runs += 1;
                assert!(!counters.is_empty(), "run record carries no counters");
            }
            // Serve-side record types; a MetricsSink decode emits none.
            r @ (unfold_obs::ObsRecord::SessionSpan(_) | unfold_obs::ObsRecord::Flight(_)) => {
                panic!("decoder telemetry emitted a serve-side record: {r:?}")
            }
        }
    }
    assert_eq!(
        frames,
        result
            .stats
            .frames
            .min(unfold_obs::frame::DEFAULT_FRAME_CAPACITY)
    );
    assert!(
        spans >= 3,
        "expected span records for the decode stages, got {spans}"
    );
    assert_eq!(runs, 1, "expected exactly one run-totals record");
}
