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
    SectionInfo, SectionKind, STATE_RECORD_BYTES,
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
const LM_WORD_BITS: u32 = 18;
const LM_DEST_BITS: u32 = 21;

/// Byte offsets of a state record's fields (the paper's 8-byte
/// record): u32 first-arc bit offset, u16 arc count, u16 slot (AM) or
/// flags (LM).
const REC_COUNT: usize = 4;
const REC_SLOT: usize = 6;
/// The AM slot's ε bit and its "not final" index.
const AM_EPS_BIT: u16 = 0x8000;
const AM_NOT_FINAL: u16 = 0x7FFF;
/// Bytes between a state table and its arc stream's words: the
/// stream's bit length (u64) and word count (u32).
const STREAM_HEAD_BYTES: usize = 12;
/// Zero bytes after each arc stream.
const TAIL_PAD_BYTES: usize = 16;

/// The bundle, its section table, and where each model's state table
/// and arc stream start in the file.
struct Packed {
    bytes: Vec<u8>,
    am: SectionInfo,
    lm: SectionInfo,
    am_table: usize,
    lm_table: usize,
    am_stream: usize,
    lm_stream: usize,
}

impl Packed {
    /// Byte offset in the file of field `at` of state `s`'s record in
    /// the state table starting at `table`.
    fn field(table: usize, s: u32, at: usize) -> usize {
        table + s as usize * STATE_RECORD_BYTES + at
    }

    fn u16_at(&self, at: usize) -> u16 {
        u16::from_le_bytes(self.bytes[at..at + 2].try_into().unwrap())
    }
}

/// Overwrites the little-endian u16 at byte `at`.
fn put_u16(bytes: &mut [u8], at: usize, v: u16) {
    bytes[at..at + 2].copy_from_slice(&v.to_le_bytes());
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
    let (am_layout, lm_layout) = (b.am_layout().unwrap(), b.lm_layout(&lm.name).unwrap());
    let am_stream = am.offset + am.len - am_layout.arc_stream_bytes();
    let lm_stream = lm.offset + lm.len - lm_layout.arc_stream_bytes();
    let am_table = am_stream - STREAM_HEAD_BYTES - am_layout.state_table_bytes();
    let lm_table = lm_stream - STREAM_HEAD_BYTES - lm_layout.state_table_bytes();
    assert_eq!(
        am_layout.state_table_bytes(),
        am_layout.num_states() * STATE_RECORD_BYTES
    );
    Packed {
        bytes,
        am,
        lm,
        am_table,
        lm_table,
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
/// so every CRC in the file holds again. The table entry's length (the
/// u64 before its CRC) is rewritten to `section.len`, so a section can
/// be shortened.
fn reseal(bytes: &mut [u8], section: &SectionInfo) {
    let at = table_crc_at(bytes, section);
    bytes[at - 8..at].copy_from_slice(&(section.len as u64).to_le_bytes());
    let crc = crc64(&bytes[section.offset..section.offset + section.len]);
    bytes[at..at + 8].copy_from_slice(&crc.to_le_bytes());
    reseal_table(bytes);
}

/// Where `section`'s payload CRC sits in the section table.
fn table_crc_at(bytes: &[u8], section: &SectionInfo) -> usize {
    let table_end = HEADER_BYTES + u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    bytes[..table_end]
        .windows(8)
        .position(|w| w == section.crc.to_le_bytes())
        .expect("the section's CRC is in the table")
}

/// Re-seals the checksum over the header and the section table.
fn reseal_table(bytes: &mut [u8]) {
    let table_end = HEADER_BYTES + u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
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
fn assert_refused_at_bind(bytes: Vec<u8>, section: &SectionInfo, want: &'static str) {
    assert_refused_with(bytes, section, ModelIoError::Corrupt(want));
}

/// [`assert_refused_at_bind`] for any model error.
fn assert_refused_with(mut bytes: Vec<u8>, section: &SectionInfo, want: ModelIoError) {
    reseal(&mut bytes, section);
    let owned = Bundle::from_bytes(bytes.clone()).expect("every checksum holds");
    let path = tmp(&format!(
        "walk-{}",
        format!("{want:?}").replace([' ', '"'], "-")
    ));
    std::fs::write(&path, &bytes).unwrap();
    let mapped = Bundle::open_mmap(&path).unwrap();
    mapped.verify_all().expect("every checksum holds");
    for (open, bundle) in [("owned", owned), ("mmap", mapped)] {
        match bind(bundle) {
            Err(BundleError::Model { section: name, err }) => {
                assert_eq!(name, section.name, "{open}: {want:?}");
                assert_eq!(err, want, "{open}");
            }
            other => panic!("{open} open of a bundle with {want:?}: {other:?}"),
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
    // where state 1's begins.
    let p = packed();
    let count = Packed::field(p.am_table, 0, REC_COUNT);
    let narcs = p.u16_at(count);
    assert!(narcs >= 1);
    let mut bytes = p.bytes.clone();
    put_u16(&mut bytes, count, narcs - 1);
    assert_refused_at_bind(bytes, &p.am, "arc blocks not contiguous");
}

#[test]
fn an_am_count_running_past_the_next_state_is_refused_at_bind() {
    // State 0 claims one arc more than it has: its block runs into
    // state 1's.
    let p = packed();
    let count = Packed::field(p.am_table, 0, REC_COUNT);
    let mut bytes = p.bytes.clone();
    put_u16(&mut bytes, count, p.u16_at(count) + 1);
    assert_refused_at_bind(bytes, &p.am, "arc blocks not contiguous");
}

#[test]
fn an_lm_count_running_past_the_next_state_is_refused_at_bind() {
    let p = packed();
    let count = Packed::field(p.lm_table, 1, REC_COUNT);
    let mut bytes = p.bytes.clone();
    put_u16(&mut bytes, count, p.u16_at(count) + 1);
    assert_refused_at_bind(bytes, &p.lm, "arc blocks not contiguous");
}

#[test]
fn a_final_slot_past_the_final_table_is_refused_at_bind() {
    // Every AM has one final weight, so slot 1 names nothing. Keep the
    // state's ε bit as it is.
    let (am, _) = small_models();
    let p = packed();
    let b = Bundle::from_bytes(p.bytes.clone()).unwrap();
    let num_finals = b.am_layout().unwrap().num_final_weights() as u16;
    assert_eq!(num_finals, 1);
    let s = (0..am.num_states() as u32)
        .find(|&s| am.final_weight(s).is_none())
        .unwrap();
    let slot = Packed::field(p.am_table, s, REC_SLOT);
    assert_eq!(p.u16_at(slot) & !AM_EPS_BIT, AM_NOT_FINAL);
    let mut bytes = p.bytes.clone();
    put_u16(&mut bytes, slot, (p.u16_at(slot) & AM_EPS_BIT) | num_finals);
    assert_refused_at_bind(bytes, &p.am, "final slot past the final-weight table");
}

#[test]
fn an_epsilon_bit_on_an_epsilon_free_state_is_refused_at_bind() {
    let (am, _) = small_models();
    let p = packed();
    let s = am.eps_flags().position(|eps| !eps).unwrap() as u32;
    let slot = Packed::field(p.am_table, s, REC_SLOT);
    let mut bytes = p.bytes.clone();
    put_u16(&mut bytes, slot, p.u16_at(slot) | AM_EPS_BIT);
    assert_refused_at_bind(
        bytes,
        &p.am,
        "epsilon bit set on a state without epsilon arcs",
    );
}

#[test]
fn a_cleared_epsilon_bit_on_a_word_end_state_is_refused_at_bind() {
    let (am, _) = small_models();
    let p = packed();
    let s = (0..am.num_states() as u32)
        .find(|&s| am.decode_arcs(s).iter().any(|a| a.ilabel == 0))
        .expect("a word-end state has an ε arc");
    assert!(am.eps_flags().nth(s as usize).unwrap());
    let slot = Packed::field(p.am_table, s, REC_SLOT);
    let mut bytes = p.bytes.clone();
    put_u16(&mut bytes, slot, p.u16_at(slot) & !AM_EPS_BIT);
    assert_refused_at_bind(
        bytes,
        &p.am,
        "epsilon bit clear on a state with an epsilon arc",
    );
}

#[test]
fn an_lm_root_record_with_a_count_or_flags_is_refused_at_bind() {
    // The root's count lives in the header; its record's count and
    // flags are 0.
    let p = packed();
    for at in [REC_COUNT, REC_SLOT] {
        let mut bytes = p.bytes.clone();
        put_u16(&mut bytes, Packed::field(p.lm_table, 0, at), 1);
        assert_refused_at_bind(bytes, &p.lm, "root record has a count or flags");
    }
}

#[test]
fn reserved_lm_flag_bits_are_refused_at_bind() {
    let p = packed();
    let flags = Packed::field(p.lm_table, 1, REC_SLOT);
    let mut bytes = p.bytes.clone();
    put_u16(&mut bytes, flags, p.u16_at(flags) | 0x8000);
    assert_refused_at_bind(bytes, &p.lm, "reserved flag bits set");
}

#[test]
fn missing_or_dirty_tail_padding_is_refused_at_bind() {
    let p = packed();
    for section in [&p.am, &p.lm] {
        // The section cut before its padding.
        let short = SectionInfo {
            len: section.len - TAIL_PAD_BYTES,
            ..section.clone()
        };
        let mut bytes = p.bytes.clone();
        reseal(&mut bytes, &short);
        let mut cut = short.clone();
        cut.crc = crc64(&bytes[short.offset..short.offset + short.len]);
        assert_refused_at_bind(bytes, &cut, "arc stream tail padding missing");
        // A non-zero padding byte.
        let mut bytes = p.bytes.clone();
        bytes[section.offset + section.len - 1] = 1;
        assert_refused_at_bind(bytes, section, "arc stream tail padding not zero");
    }
}

#[test]
fn a_width_other_than_the_formats_is_refused_at_bind() {
    // The width block follows magic, version and state count: AM tag,
    // PDF, weight, word, destination; LM weight, word, destination.
    let p = packed();
    for (section, at, want) in [
        (&p.am, 0, "tag width is not the format's"),
        (&p.am, 3, "word width is not the format's"),
        (&p.am, 4, "destination width is not the format's"),
        (&p.lm, 2, "destination width is not the format's"),
    ] {
        let mut bytes = p.bytes.clone();
        bytes[section.offset + 12 + at] -= 1;
        assert_refused_at_bind(bytes, section, want);
    }
    let mut bytes = p.bytes.clone();
    bytes[p.lm.offset + 12 + 7] = 1;
    assert_refused_at_bind(bytes, &p.lm, "reserved width bytes not zero");
}

#[test]
fn a_version_one_section_is_refused_at_bind() {
    let p = packed();
    for section in [&p.am, &p.lm] {
        let mut bytes = p.bytes.clone();
        bytes[section.offset + 4..section.offset + 8].copy_from_slice(&1u32.to_le_bytes());
        assert_refused_with(bytes, section, ModelIoError::BadVersion(1));
    }
}

#[test]
fn a_version_one_bundle_is_refused_on_both_opens() {
    let mut bytes = packed().bytes;
    bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
    reseal_table(&mut bytes);
    assert!(matches!(
        Bundle::from_bytes(bytes.clone()),
        Err(BundleError::BadVersion(1))
    ));
    let path = tmp("version-1");
    std::fs::write(&path, &bytes).unwrap();
    assert!(matches!(
        Bundle::open_mmap(&path),
        Err(BundleError::BadVersion(1))
    ));
    std::fs::remove_file(&path).ok();
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
