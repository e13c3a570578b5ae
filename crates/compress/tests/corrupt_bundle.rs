//! Corrupt-bundle robustness: a hostile or damaged `.unfb` must always
//! come back as a typed [`BundleError`] — never a panic, never an
//! over-read past the section table's declared bounds.
//!
//! The strategies here mirror how bundles actually rot: truncated
//! downloads (cut at and around every section boundary, plus a sweep),
//! single flipped bits in the header, table, and payloads, and a
//! crafted table whose sections alias the same byte range. The last
//! group rots a model's *structure* and re-seals every checksum — a
//! packer bug or a hostile file — so only binding's structural walk
//! stands between the bytes and a mid-decode panic.

use std::sync::Arc;

use unfold_am::{build_am, HmmTopology, Lexicon};
use unfold_compress::{
    crc64, Bundle, BundleError, BundleWriter, CompressedAm, CompressedLm, ModelIoError,
    SectionInfo, SectionKind,
};
use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};

/// Header bytes before the section table (magic + version + count +
/// table length), mirroring the format spec in `bundle.rs`.
const HEADER_BYTES: usize = 16;

fn small_models() -> (CompressedAm, CompressedLm) {
    let fst = build_am(&Lexicon::generate(30, 10, 3), HmmTopology::Kaldi3State).fst;
    let am = CompressedAm::compress(&fst, 64, 0);
    let spec = CorpusSpec {
        vocab_size: 30,
        num_sentences: 100,
        ..Default::default()
    };
    let model = NGramModel::train(&spec.generate(5), 30, DiscountConfig::default());
    let lm = CompressedLm::compress(&lm_to_wfst(&model), 64, 5);
    (am, lm)
}

fn bundle_bytes() -> Vec<u8> {
    let (am, lm) = small_models();
    let mut w = BundleWriter::new();
    w.add_am(&am)
        .add_lm("default", &lm)
        .add_symtab("words", b"0 a\n1 b\n".to_vec())
        .add_meta("task", b"corrupt-bundle-test".to_vec());
    w.finish().unwrap()
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("unfold-corrupt-{}-{name}.unfb", std::process::id()))
}

/// Byte offset where section payloads start (header + table + table
/// CRC), read back out of the intact header.
fn data_start(bytes: &[u8]) -> usize {
    let table_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    HEADER_BYTES + table_len + 8
}

#[test]
fn truncation_at_every_boundary_is_a_typed_error() {
    let bytes = bundle_bytes();
    let sections: Vec<(usize, usize)> = {
        let b = Bundle::from_bytes(bytes.clone()).unwrap();
        b.sections().iter().map(|s| (s.offset, s.len)).collect()
    };

    // Every byte of the header + table region, every section boundary
    // (start, end, and one byte either side), and a coarse sweep of
    // the payload region.
    let mut cuts: Vec<usize> = (0..data_start(&bytes)).collect();
    for &(off, len) in &sections {
        for cut in [
            off.saturating_sub(1),
            off,
            off + 1,
            off + len - 1,
            off + len,
        ] {
            cuts.push(cut);
        }
    }
    cuts.extend((data_start(&bytes)..bytes.len()).step_by(97));

    for cut in cuts {
        if cut >= bytes.len() {
            continue;
        }
        let err = Bundle::from_bytes(bytes[..cut].to_vec())
            .err()
            .unwrap_or_else(|| panic!("truncation to {cut} bytes opened clean"));
        // Any typed BundleError is acceptable; reaching here at all
        // means no panic and no over-read.
        let _ = format!("{err}");
    }

    // The same truncations through the mmap path (a cut file on disk).
    let path = tmp("truncate");
    for &(off, len) in &sections {
        std::fs::write(&path, &bytes[..off + len - 1]).unwrap();
        assert!(
            Bundle::open_mmap(&path).is_err() || {
                // A cut inside the *last* payload still parses the
                // table only if the table says otherwise; lazy opens
                // must then fail verification instead.
                Bundle::open_mmap(&path).unwrap().verify_all().is_err()
            },
            "file cut at {} opened and verified clean",
            off + len - 1
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn flipped_header_and_table_bytes_are_typed_errors() {
    let bytes = bundle_bytes();
    let start = data_start(&bytes);

    for pos in 0..start {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x01;
        let err = Bundle::from_bytes(bad)
            .err()
            .unwrap_or_else(|| panic!("flipped byte {pos} opened clean"));
        match (pos, &err) {
            (0..=3, BundleError::BadMagic) => {}
            (4..=7, BundleError::BadVersion(_)) => {}
            // Anything else lands in the table or its CRC: count/len
            // corruption, a table-checksum mismatch, or a structurally
            // invalid table — all typed.
            (_, e) => {
                let _ = format!("{e}");
            }
        }
    }
}

#[test]
fn flipped_payload_bytes_fail_their_sections_checksum() {
    let bytes = bundle_bytes();
    let sections: Vec<(String, usize, usize)> = {
        let b = Bundle::from_bytes(bytes.clone()).unwrap();
        b.sections()
            .iter()
            .map(|s| (s.name.clone(), s.offset, s.len))
            .collect()
    };

    let path = tmp("flip");
    for (name, off, len) in sections {
        let mut bad = bytes.clone();
        bad[off + len / 2] ^= 0x80;

        // Eager open: rejected immediately, naming the section.
        match Bundle::from_bytes(bad.clone()) {
            Err(BundleError::ChecksumMismatch(s)) => assert_eq!(s, name),
            other => panic!("payload flip in '{name}': {other:?}"),
        }

        // Lazy mmap open: opens (checksums deferred), then the flipped
        // section — and only a full verification — reports it.
        std::fs::write(&path, &bad).unwrap();
        let b = Bundle::open_mmap(&path).unwrap();
        match b.verify_all() {
            Err(BundleError::ChecksumMismatch(s)) => assert_eq!(s, name),
            other => panic!("mmap verify of flipped '{name}': {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn overlapping_section_offsets_are_rejected() {
    let bytes = bundle_bytes();

    // Walk the table to the second entry's offset field and point it
    // at the first section's payload, then re-seal the table CRC so
    // only the overlap check can object.
    let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
    assert!(count >= 2);
    let table_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let mut pos = HEADER_BYTES;
    let mut first_offset = None;
    let mut patched = bytes.clone();
    for i in 0..2 {
        let name_len = u32::from_le_bytes(patched[pos + 4..pos + 8].try_into().unwrap()) as usize;
        let offset_pos = pos + 8 + name_len;
        let offset = u64::from_le_bytes(patched[offset_pos..offset_pos + 8].try_into().unwrap());
        match i {
            0 => first_offset = Some(offset),
            _ => patched[offset_pos..offset_pos + 8]
                .copy_from_slice(&first_offset.unwrap().to_le_bytes()),
        }
        pos = offset_pos + 24; // skip offset + len + crc
    }
    let crc = crc64(&patched[..HEADER_BYTES + table_len]);
    patched[HEADER_BYTES + table_len..HEADER_BYTES + table_len + 8]
        .copy_from_slice(&crc.to_le_bytes());

    match Bundle::from_bytes(patched) {
        Err(BundleError::Corrupt(msg)) => assert!(msg.contains("overlap"), "got: {msg}"),
        other => panic!("aliased sections opened: {other:?}"),
    }
}

#[test]
fn section_kind_confusion_is_a_typed_error() {
    // Ask for the AM out of a bundle whose "am" payload is actually LM
    // bytes: the model-level magic check must reject it (the container
    // checksums are all valid).
    let (_, lm) = small_models();
    let lm2 = lm.clone();
    let mut w = BundleWriter::new();
    // add_am writes the section with the AM kind tag regardless of the
    // payload we hand it — simulate a confused producer by packing an
    // LM's bytes under the AM section via the public writer is not
    // possible, so corrupt at the model layer instead: an LM section
    // asked for as an AM.
    let fst = build_am(&Lexicon::generate(30, 10, 3), HmmTopology::Kaldi3State).fst;
    let am = CompressedAm::compress(&fst, 64, 0);
    w.add_am(&am).add_lm("default", &lm).add_lm("alt", &lm2);
    let b = Bundle::from_bytes(w.finish().unwrap()).unwrap();
    match b.lm_layout("am") {
        Err(BundleError::MissingSection(s)) => assert!(s.contains("am"), "got: {s}"),
        other => panic!("LM lookup of an AM name: {other:?}"),
    }
    assert!(matches!(
        b.section_bytes(SectionKind::Am, "default"),
        Err(BundleError::MissingSection(_))
    ));
}

// ---------------------------------------------------------------------
// Structurally bad models under valid checksums.
// ---------------------------------------------------------------------

/// Bit widths of the arc fields the cases below rewrite (paper §3.4).
const AM_TAG_BITS: u32 = 2;
const AM_DEST_BITS: u32 = 20;
/// Bits before an AM full arc's destination: tag, PDF, weight, word.
const AM_DEST_AT: u64 = 2 + 12 + 6 + 18;
const AM_STATE_REC_BYTES: usize = 20;
const LM_WORD_BITS: u32 = 18;
const LM_DEST_BITS: u32 = 21;

/// The bundle, its section table, and where each model's arc stream
/// starts in the file.
struct Packed {
    bytes: Vec<u8>,
    am: SectionInfo,
    lm: SectionInfo,
    am_stream: usize,
    lm_stream: usize,
}

fn packed() -> Packed {
    let bytes = bundle_bytes();
    let b = Bundle::from_bytes(bytes.clone()).unwrap();
    let find = |kind| {
        b.sections()
            .iter()
            .find(|s| s.kind == kind)
            .unwrap()
            .clone()
    };
    let (am, lm) = (find(SectionKind::Am), find(SectionKind::Lm));
    let am_stream = am.offset + am.len - b.am_layout().unwrap().arc_stream_bytes();
    let lm_stream = lm.offset + lm.len - b.lm_layout(&lm.name).unwrap().arc_stream_bytes();
    Packed {
        bytes,
        am,
        lm,
        am_stream,
        lm_stream,
    }
}

/// Overwrites the `width`-bit field at bit `off` of the arc stream
/// starting at byte `stream`.
fn poke(bytes: &mut [u8], stream: usize, off: u64, width: u32, value: u64) {
    for b in off..off + u64::from(width) {
        let bit = ((value >> (b - off)) & 1) as u8;
        let byte = &mut bytes[stream + (b / 8) as usize];
        *byte = (*byte & !(1 << (b % 8))) | (bit << (b % 8));
    }
}

/// Re-seals `section`'s payload checksum and then the table checksum,
/// so every CRC in the file holds again.
fn reseal(bytes: &mut [u8], section: &SectionInfo) {
    let table_end = HEADER_BYTES + u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let at = bytes[..table_end]
        .windows(8)
        .position(|w| w == section.crc.to_le_bytes())
        .expect("the section's CRC is in the table");
    let crc = crc64(&bytes[section.offset..section.offset + section.len]);
    bytes[at..at + 8].copy_from_slice(&crc.to_le_bytes());
    let crc = crc64(&bytes[..table_end]);
    bytes[table_end..table_end + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Binds the AM and the LM of a bundle.
fn bind(bundle: Bundle) -> Result<(), BundleError> {
    let bundle = Arc::new(bundle);
    CompressedAm::from_bundle(Arc::clone(&bundle))?;
    CompressedLm::from_bundle(bundle, "default")?;
    Ok(())
}

/// Re-seals `section` of `bytes`, then asserts the owned and the mapped
/// open both pass every checksum and refuse to bind with
/// [`BundleError::Model`] naming the section and `want`.
fn assert_refused_at_bind(mut bytes: Vec<u8>, section: &SectionInfo, want: &'static str) {
    reseal(&mut bytes, section);
    let owned = Bundle::from_bytes(bytes.clone()).expect("every checksum holds");
    let path = tmp(&format!("walk-{}", want.replace(' ', "-")));
    std::fs::write(&path, &bytes).unwrap();
    let mapped = Bundle::open_mmap(&path).unwrap();
    mapped.verify_all().expect("every checksum holds");
    for (open, bundle) in [("owned", owned), ("mmap", mapped)] {
        match bind(bundle) {
            Err(BundleError::Model { section: name, err }) => {
                assert_eq!(name, section.name, "{open}: {want}");
                assert_eq!(err, ModelIoError::Corrupt(want), "{open}");
            }
            other => panic!("{open} open of a bundle with {want}: {other:?}"),
        }
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn clean_bundles_bind_on_both_opens() {
    let p = packed();
    bind(Bundle::from_bytes(p.bytes.clone()).unwrap()).unwrap();
    let path = tmp("walk-clean");
    std::fs::write(&path, &p.bytes).unwrap();
    bind(Bundle::open_mmap(&path).unwrap()).unwrap();
    std::fs::remove_file(&path).ok();
}

#[test]
fn an_am_destination_past_the_last_state_is_refused_at_bind() {
    let (am, _) = small_models();
    let p = packed();
    // The first full-format arc: its destination is explicit.
    let mut full = None;
    for s in 0..am.num_states() as u32 {
        am.for_each_arc(s, |_, off, width| {
            if width == 58 && full.is_none() {
                full = Some(off);
            }
        });
    }
    let off = full.expect("the AM has a full-format arc");
    let mut bytes = p.bytes.clone();
    let n = am.num_states() as u64;
    poke(&mut bytes, p.am_stream, off + AM_DEST_AT, AM_DEST_BITS, n);
    assert_refused_at_bind(bytes, &p.am, "destination out of range");
}

#[test]
fn a_plus_one_arc_from_the_last_am_state_is_refused_at_bind() {
    let (am, _) = small_models();
    let p = packed();
    let last = am.num_states() as u32 - 1;
    assert!(
        !am.decode_arcs(last).is_empty(),
        "the last state has an arc"
    );
    let mut bytes = p.bytes.clone();
    poke(
        &mut bytes,
        p.am_stream,
        am.state_bit_offset(last),
        AM_TAG_BITS,
        0b10,
    );
    assert_refused_at_bind(bytes, &p.am, "+1 arc from last state");
}

#[test]
fn a_minus_one_arc_from_am_state_zero_is_refused_at_bind() {
    let (am, _) = small_models();
    let p = packed();
    let mut bytes = p.bytes.clone();
    poke(
        &mut bytes,
        p.am_stream,
        am.state_bit_offset(0),
        AM_TAG_BITS,
        0b01,
    );
    assert_refused_at_bind(bytes, &p.am, "-1 arc from state 0");
}

#[test]
fn non_contiguous_am_blocks_are_refused_at_bind() {
    // State 0 claims one arc fewer than it has: its block ends short of
    // where state 1's begins. The state table sits right before the
    // stream's bit length (u64) and word count (u32).
    let (am, _) = small_models();
    let p = packed();
    let b = Bundle::from_bytes(p.bytes.clone()).unwrap();
    let table = p.am_stream - 12 - b.am_layout().unwrap().state_table_bytes();
    assert_eq!(
        table + am.num_states() * AM_STATE_REC_BYTES,
        p.am_stream - 12
    );
    let mut bytes = p.bytes.clone();
    let count = table + 8;
    let narcs = u32::from_le_bytes(bytes[count..count + 4].try_into().unwrap());
    assert!(narcs >= 1);
    bytes[count..count + 4].copy_from_slice(&(narcs - 1).to_le_bytes());
    assert_refused_at_bind(bytes, &p.am, "arc blocks not contiguous");
}

#[test]
fn unsorted_lm_word_arcs_are_refused_at_bind() {
    let (_, lm) = small_models();
    let p = packed();
    let s = (1..lm.num_states() as u32)
        .find(|&s| lm.num_word_arcs(s) >= 2)
        .expect("some state has two word arcs");
    let (a0, a1) = (lm.word_arc(s, 0), lm.word_arc(s, 1));
    let mut bytes = p.bytes.clone();
    for (i, word) in [(0, a1.ilabel), (1, a0.ilabel)] {
        let off = lm.word_arc_bit_offset(s, i);
        poke(&mut bytes, p.lm_stream, off, LM_WORD_BITS, u64::from(word));
    }
    assert_refused_at_bind(bytes, &p.lm, "word arcs not sorted");
}

#[test]
fn an_lm_destination_past_the_last_state_is_refused_at_bind() {
    let (_, lm) = small_models();
    let p = packed();
    let s = (1..lm.num_states() as u32)
        .find(|&s| lm.num_word_arcs(s) >= 1)
        .expect("some state has a word arc");
    let off = lm.word_arc_bit_offset(s, 0) + u64::from(LM_WORD_BITS);
    let mut bytes = p.bytes.clone();
    let n = lm.num_states() as u64;
    poke(&mut bytes, p.lm_stream, off, LM_DEST_BITS, n);
    assert_refused_at_bind(bytes, &p.lm, "destination out of range");
}

#[test]
fn a_backoff_destination_past_the_last_state_is_refused_at_bind() {
    let (_, lm) = small_models();
    let p = packed();
    let (_, off) = lm.backoff_arc(1).expect("state 1 backs off");
    let mut bytes = p.bytes.clone();
    let n = lm.num_states() as u64;
    poke(&mut bytes, p.lm_stream, off, LM_DEST_BITS, n);
    assert_refused_at_bind(bytes, &p.lm, "back-off destination out of range");
}

#[test]
fn a_backoff_cycle_is_refused_at_bind() {
    // States 1 and 2 back off to each other.
    let (_, lm) = small_models();
    let p = packed();
    let mut bytes = p.bytes.clone();
    for (from, to) in [(1u32, 2u64), (2, 1)] {
        let (_, off) = lm.backoff_arc(from).expect("non-root states back off");
        poke(&mut bytes, p.lm_stream, off, LM_DEST_BITS, to);
    }
    assert_refused_at_bind(bytes, &p.lm, "back-off chain too long or cyclic");
}
