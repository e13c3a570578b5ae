//! Property tests across the compression stack on realistic models.

use proptest::prelude::*;
use unfold::{System, TaskSpec};
use unfold_compress::{
    AmLayout, CompressedAm, CompressedLm, LmLayout, WeightQuantizer, STATE_RECORD_BYTES,
};
use unfold_wfst::SizeModel;

fn system() -> System {
    System::build(&TaskSpec::tiny())
}

/// The stream's bit length, read from a section's bytes: the u64 right
/// before its word count, which precedes the arc stream.
fn stream_bits(section: &[u8], arc_stream_bytes: usize) -> u64 {
    let at = section.len() - arc_stream_bytes - 12;
    u64::from_le_bytes(section[at..at + 8].try_into().unwrap())
}

/// A section is what the paper counts (`size_bytes()`) plus what only
/// the file needs: on every preset, section length less `size_bytes()`
/// is the header (fields, width block, codebook count), the AM's
/// final-weight table, the stream head (bit length, word count), the
/// tail padding and the stream's rounding up to whole words; and the
/// state table is exactly the paper's 8 bytes a state.
#[test]
fn sections_are_the_paper_count_plus_headers_on_every_preset() {
    // Magic, version, state count, widths, start, short and full arc
    // counts, codebook count / magic, version, state count, widths,
    // root count, codebook count.
    const AM_HEAD: u64 = 4 + 4 + 4 + 8 + 4 + 8 + 8 + 4;
    const LM_HEAD: u64 = 4 + 4 + 4 + 8 + 4 + 4;
    const STREAM_HEAD: u64 = 8 + 4;
    const PAD: u64 = 16;
    assert_eq!(STATE_RECORD_BYTES, 8);
    assert_eq!(unfold_decoder::addr::STATE_RECORD_BYTES, 8);
    let mut specs = TaskSpec::all_paper_tasks();
    specs.push(TaskSpec::tiny());
    for spec in specs {
        let s = System::build(&spec);
        let am = s.am_comp.to_bytes();
        let layout = AmLayout::parse(&am).unwrap();
        assert_eq!(layout.state_table_bytes(), 8 * layout.num_states());
        let stream = layout.arc_stream_bytes() as u64 - PAD;
        let rounding = stream - stream_bits(&am, layout.arc_stream_bytes()).div_ceil(8);
        let finals = 4 + 4 * layout.num_final_weights() as u64;
        assert_eq!(
            am.len() as u64 - s.am_comp.size_bytes(),
            AM_HEAD + finals + STREAM_HEAD + PAD + rounding,
            "{} AM",
            spec.name
        );
        let lm = s.lm_comp.to_bytes();
        let layout = LmLayout::parse(&lm).unwrap();
        assert_eq!(layout.state_table_bytes(), 8 * layout.num_states());
        let stream = layout.arc_stream_bytes() as u64 - PAD;
        let rounding = stream - stream_bits(&lm, layout.arc_stream_bytes()).div_ceil(8);
        assert_eq!(
            lm.len() as u64 - s.lm_comp.size_bytes(),
            LM_HEAD + STREAM_HEAD + PAD + rounding,
            "{} LM",
            spec.name
        );
    }
}

#[test]
fn am_roundtrip_preserves_structure_exactly() {
    let s = system();
    let rt = s.am_comp.to_wfst();
    assert_eq!(rt.num_states(), s.am.fst.num_states());
    for st in s.am.fst.states() {
        let (a, b) = (s.am.fst.arcs(st), rt.arcs(st));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(
                (x.ilabel, x.olabel, x.nextstate),
                (y.ilabel, y.olabel, y.nextstate)
            );
        }
    }
}

#[test]
fn lm_roundtrip_preserves_structure_exactly() {
    let s = system();
    let rt = s.lm_comp.to_wfst();
    assert_eq!(rt.num_states(), s.lm_fst.num_states());
    assert_eq!(rt.num_arcs(), s.lm_fst.num_arcs());
    assert!(rt.is_ilabel_sorted());
}

#[test]
fn compression_always_shrinks_realistic_models() {
    let s = system();
    assert!(s.am_comp.size_bytes() < SizeModel::UNCOMPRESSED.bytes(&s.am.fst));
    assert!(s.lm_comp.size_bytes() < SizeModel::UNCOMPRESSED.bytes(&s.lm_fst));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any seed/cluster-count combination round-trips the AM topology.
    #[test]
    fn am_roundtrip_under_any_quantization(k in 2usize..=64, seed in 0u64..50) {
        let s = system();
        let comp = CompressedAm::compress(&s.am.fst, k, seed);
        let rt = comp.to_wfst();
        prop_assert_eq!(rt.num_arcs(), s.am.fst.num_arcs());
    }

    /// Quantized weights never stray beyond the codebook range.
    #[test]
    fn quantizer_output_within_range(k in 2usize..64, seed in 0u64..20) {
        let s = system();
        let weights: Vec<f32> = s.lm_fst.states()
            .flat_map(|st| s.lm_fst.arcs(st).iter().map(|a| a.weight))
            .collect();
        let q = WeightQuantizer::fit(&weights, k, seed);
        let (mut lo, mut hi) = (f32::INFINITY, f32::NEG_INFINITY);
        for &w in &weights {
            lo = lo.min(w);
            hi = hi.max(w);
        }
        for &w in weights.iter().step_by(7) {
            let v = q.quantize(w);
            prop_assert!(v >= lo - 1e-5 && v <= hi + 1e-5);
        }
    }

    /// Compressed LM lookups equal uncompressed binary search for any
    /// (state, word) pair.
    #[test]
    fn lm_lookup_agreement(sstep in 1usize..20, wstep in 1usize..20) {
        let s = system();
        let clm = CompressedLm::compress(&s.lm_fst, 64, 1);
        for st in (0..s.lm_fst.num_states() as u32).step_by(sstep) {
            for w in (1..=80u32).step_by(wstep) {
                let a = s.lm_fst.find_arc(st, w).0.map(|x| x.nextstate);
                let b = clm.lookup(st, w).arc.map(|x| x.nextstate);
                prop_assert_eq!(a, b);
            }
        }
    }
}

/// Regression: promoted from `proptest-regressions/compression_roundtrip.txt`
/// (cc 16b15bc5…, "shrinks to k = 65, seed = 0") so the case survives a
/// proptest cache wipe. k = 65 is the exact boundary of the packed
/// formats' 6-bit weight-index field: the free-standing quantizer
/// accepts it (spilling to 7 index bits), but `compress` must reject it
/// loudly instead of silently truncating codebook indices — and k = 64
/// must keep round-tripping bit-exactly.
#[test]
fn regression_k65_seed0_is_rejected_at_the_format_boundary() {
    let s = system();
    let weights: Vec<f32> = s
        .lm_fst
        .states()
        .flat_map(|st| s.lm_fst.arcs(st).iter().map(|a| a.weight))
        .collect();

    // The quantizer itself is format-agnostic: k = 65 fits and needs a
    // 7th index bit.
    let q = WeightQuantizer::fit(&weights, 65, 0);
    assert!(q.index_bits() >= 7, "k = 65 must spill past 6 index bits");
    for &w in weights.iter().step_by(7) {
        assert!(q.quantize(w).is_finite());
    }

    // The packed formats must refuse k = 65 (their arc layouts store
    // 6-bit indices) rather than emit corrupt models.
    for result in [
        std::panic::catch_unwind(|| CompressedAm::compress(&s.am.fst, 65, 0).size_bytes()),
        std::panic::catch_unwind(|| CompressedLm::compress(&s.lm_fst, 65, 0).size_bytes()),
    ] {
        let err = result.expect_err("k = 65 must be rejected by compress");
        let msg = err
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| err.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("k <= 64"), "unexpected panic message: {msg}");
    }

    // One below the boundary still round-trips the topology exactly.
    let cam = CompressedAm::compress(&s.am.fst, 64, 0);
    let clm = CompressedLm::compress(&s.lm_fst, 64, 0);
    assert_eq!(cam.to_wfst().num_arcs(), s.am.fst.num_arcs());
    assert_eq!(clm.to_wfst().num_arcs(), s.lm_fst.num_arcs());
}

#[test]
fn saved_models_decode_identically_after_reload() {
    // The deployment flow: compress once, pack and write the bundle,
    // open it elsewhere, decode — results must be bit-identical.
    use unfold::{pack_system, Models};
    use unfold_decoder::{DecodeConfig, NullSink, OtfDecoder};

    let s = system();
    let dir = std::env::temp_dir().join(format!("unfold-io-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("task.unfb");
    std::fs::write(&path, pack_system(&s, &[]).expect("pack")).expect("write bundle");

    let models = Models::open(&path).expect("open bundle");
    let (am, lm) = (models.am(), models.default_lm());
    let dec = OtfDecoder::new(DecodeConfig::default());
    for utt in s.test_utterances(3) {
        let a = dec.decode(&s.am_comp, &s.lm_comp, &utt.scores, &mut NullSink);
        let b = dec.decode(am, lm, &utt.scores, &mut NullSink);
        assert_eq!(a.words, b.words);
        assert_eq!(a.cost, b.cost);
    }
    std::fs::remove_dir_all(&dir).ok();
}
