//! Compressed LM format (paper §3.4).
//!
//! Three arc classes, as in the paper:
//!
//! * **Unigram arcs** (root state): "no information other than a 6-bit
//!   weight value is required" — the *i*-th arc is word *i* and points
//!   at state *i* (an invariant `unfold_lm::graph` establishes).
//! * **Back-off arcs**: 27 bits (21-bit destination + 6-bit weight),
//!   always stored *last* in a state so they are addressable without
//!   searching.
//! * **Regular arcs**: 45 bits (18-bit word id + 21-bit destination +
//!   6-bit weight), fixed-width so the *i*-th arc of a state sits at a
//!   computable bit offset — the random access the binary search needs.

use unfold_wfst::{Arc, Label, StateId, Wfst, WfstBuilder, EPSILON};

use crate::bits::{BitSlice, BitWriter};
use crate::bundle::{Bundle, BundleError, SectionKind};
use crate::io::{
    rd_u32, rd_u64, ByteReader, ByteWriter, Extents, ModelIoError, SectionBytes, FORMAT_VERSION,
    LM_DEST_BITS, LM_MAGIC, WEIGHT_BITS, WORD_BITS,
};
use crate::quant::WeightQuantizer;

/// Regular arc width: 18 + 21 + 6.
pub const REGULAR_ARC_BITS: u64 = (WORD_BITS + LM_DEST_BITS + WEIGHT_BITS) as u64;
/// Back-off arc width: 21 + 6.
pub const BACKOFF_ARC_BITS: u64 = (LM_DEST_BITS + WEIGHT_BITS) as u64;
/// Unigram arc width: weight only.
pub const UNIGRAM_ARC_BITS: u64 = WEIGHT_BITS as u64;

/// Serialized state record: bit offset (u64), word-arc count (u32,
/// excluding the back-off arc), back-off flag (u32).
const STATE_REC_BYTES: usize = 16;

/// Result of looking up a word at an LM state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LmLookup {
    /// The matching arc, if the state has one for the word.
    pub arc: Option<Arc>,
    /// Binary-search probes performed (each is an LM-arc memory fetch).
    pub probes: u32,
    /// Bit offset of the last probed arc (address modeling).
    pub bit_offset: u64,
}

/// Parsed header of a serialized `UNFL` section.
#[derive(Debug, Clone)]
pub struct LmLayout {
    num_states: usize,
    quant: WeightQuantizer,
    extents: Extents,
}

impl LmLayout {
    /// Parses the header of a serialized LM. O(states): because LM arc
    /// records are fixed-width, the sweep verifies full block
    /// contiguity (root positional block, per-state word arcs, trailing
    /// back-off) without decoding a single arc. Word-arc sortedness and
    /// destination bounds are left to [`CompressedLm::from_bytes`]'s
    /// full walk.
    ///
    /// # Errors
    /// Returns [`ModelIoError`] on bad magic/version, truncation, or a
    /// structurally invalid header.
    pub fn parse(bytes: &[u8]) -> Result<LmLayout, ModelIoError> {
        let mut r = ByteReader::new(bytes);
        let num_states = r.model_head(LM_MAGIC, LM_DEST_BITS)?;
        let quant = r.codebook()?;
        let extents = r.extents(num_states, STATE_REC_BYTES)?;
        let (states, _) = extents.split(bytes);
        let len_bits = extents.len_bits();
        if rd_u32(states, 12) != 0 {
            return Err(ModelIoError::Corrupt("root state has a back-off arc"));
        }
        let mut expect = 0u64;
        for i in 0..num_states {
            let base = i * STATE_REC_BYTES;
            let off = rd_u64(states, base);
            let narcs = u64::from(rd_u32(states, base + 8));
            let has_backoff = rd_u32(states, base + 12) != 0;
            if off != expect {
                return Err(ModelIoError::Corrupt("arc blocks not contiguous"));
            }
            let width = if i == 0 {
                UNIGRAM_ARC_BITS
            } else {
                REGULAR_ARC_BITS
            };
            let mut end = narcs
                .checked_mul(width)
                .and_then(|n| n.checked_add(off))
                .ok_or(ModelIoError::Corrupt("offset overflow"))?;
            if has_backoff {
                end += BACKOFF_ARC_BITS;
            }
            if end > len_bits {
                return Err(ModelIoError::Corrupt("arc block past end of stream"));
            }
            expect = end;
        }
        if expect != len_bits {
            return Err(ModelIoError::Corrupt("arc blocks not contiguous"));
        }
        Ok(LmLayout {
            num_states,
            quant,
            extents,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Arc-stream payload size in bytes.
    pub fn arc_stream_bytes(&self) -> usize {
        self.extents.arc_stream_bytes()
    }

    /// State-table size in bytes — the part of the section the header
    /// sweep *does* read at parse time.
    pub fn state_table_bytes(&self) -> usize {
        self.extents.state_table_bytes()
    }
}

/// An LM WFST in the compressed bit-packed format: the serialized
/// `UNFL` section bytes — in a buffer of their own or inside a shared
/// bundle, possibly memory-mapped — plus their parsed [`LmLayout`].
/// Every field is read in place; cloning shares the bytes.
#[derive(Debug, Clone)]
pub struct CompressedLm {
    bytes: SectionBytes,
    layout: LmLayout,
}

/// The per-call borrowed view: the state table and the arc stream.
struct View<'a> {
    layout: &'a LmLayout,
    states: &'a [u8],
    bits: BitSlice<'a>,
}

impl View<'_> {
    /// `(bit offset, word-arc count, has back-off)` of `s`.
    #[inline]
    fn rec(&self, s: StateId) -> (u64, u32, bool) {
        let base = s as usize * STATE_REC_BYTES;
        (
            rd_u64(self.states, base),
            rd_u32(self.states, base + 8),
            rd_u32(self.states, base + 12) != 0,
        )
    }

    /// Word arc `i` of `s`, whose block starts at bit `base`, and the
    /// arc's own bit offset.
    #[inline]
    fn word_arc_at(&self, s: StateId, base: u64, i: u32) -> (Arc, u64) {
        if s == 0 {
            let off = base + u64::from(i) * UNIGRAM_ARC_BITS;
            let widx = self.bits.read(off, WEIGHT_BITS) as u8;
            (
                Arc::new(i + 1, i + 1, self.layout.quant.decode(widx), i + 1),
                off,
            )
        } else {
            let off = base + u64::from(i) * REGULAR_ARC_BITS;
            let word = self.bits.read(off, WORD_BITS) as u32;
            let dest = self.bits.read(off + u64::from(WORD_BITS), LM_DEST_BITS) as u32;
            let widx = self
                .bits
                .read(off + u64::from(WORD_BITS + LM_DEST_BITS), WEIGHT_BITS)
                as u8;
            (
                Arc::new(word, word, self.layout.quant.decode(widx), dest),
                off,
            )
        }
    }

    fn word_arc(&self, s: StateId, i: u32) -> Arc {
        let (base, narcs, _) = self.rec(s);
        assert!(i < narcs, "word_arc: index {i} out of range at state {s}");
        self.word_arc_at(s, base, i).0
    }

    fn backoff(&self, s: StateId) -> Option<(Arc, u64)> {
        let (base, narcs, has_backoff) = self.rec(s);
        if !has_backoff {
            return None;
        }
        let off = base + u64::from(narcs) * REGULAR_ARC_BITS;
        let dest = self.bits.read(off, LM_DEST_BITS) as u32;
        let widx = self.bits.read(off + u64::from(LM_DEST_BITS), WEIGHT_BITS) as u8;
        Some((Arc::epsilon(self.layout.quant.decode(widx), dest), off))
    }

    fn lookup(&self, s: StateId, word: Label, mut on_probe: impl FnMut(u64)) -> Option<Arc> {
        let (base, narcs, _) = self.rec(s);
        if s == 0 {
            // Root: the i-th arc is word i + 1, one positional read.
            if word == EPSILON || word > narcs {
                return None;
            }
            let (arc, off) = self.word_arc_at(0, base, word - 1);
            on_probe(off);
            return Some(arc);
        }
        let (mut lo, mut hi) = (0u32, narcs);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let (a, off) = self.word_arc_at(s, base, mid);
            on_probe(off);
            match a.ilabel.cmp(&word) {
                std::cmp::Ordering::Equal => return Some(a),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }

    /// Word-arc sortedness and destination bounds — the part of the
    /// structural check [`LmLayout::parse`] defers. O(arcs).
    fn validate(&self) -> Result<(), ModelIoError> {
        let n = self.layout.num_states as u32;
        for s in 1..n {
            let (base, narcs, _) = self.rec(s);
            let mut prev_word = 0u32;
            for i in 0..narcs {
                let (a, _) = self.word_arc_at(s, base, i);
                if a.ilabel <= prev_word {
                    return Err(ModelIoError::Corrupt("word arcs not sorted"));
                }
                prev_word = a.ilabel;
                if a.nextstate >= n {
                    return Err(ModelIoError::Corrupt("destination out of range"));
                }
            }
            if self.backoff(s).is_some_and(|(back, _)| back.nextstate >= n) {
                return Err(ModelIoError::Corrupt("back-off destination out of range"));
            }
        }
        Ok(())
    }
}

impl CompressedLm {
    /// Compresses an LM WFST produced by `unfold_lm::lm_to_wfst`.
    ///
    /// # Panics
    /// Panics if the machine violates the layout invariants: root arcs
    /// not in word order with `dest == word == index + 1`, arcs not
    /// ilabel-sorted, more than one epsilon arc per state, epsilon arcs
    /// not last, or fields exceeding their bit budgets.
    pub fn compress(fst: &Wfst, k: usize, seed: u64) -> Self {
        assert!(fst.num_states() > 0, "compress: empty LM");
        assert_eq!(fst.start(), 0, "compress: LM root must be state 0");
        assert!(
            fst.num_states() < (1 << LM_DEST_BITS),
            "compress: {} states exceed the 21-bit destination field",
            fst.num_states()
        );
        assert!(fst.is_ilabel_sorted(), "compress: LM arcs must be sorted");

        let weights: Vec<f32> = fst
            .states()
            .flat_map(|s| fst.arcs(s).iter().map(|a| a.weight))
            .collect();
        assert!(
            k <= 64,
            "compress: the LM format stores 6-bit weight indices (k <= 64)"
        );
        let quant = WeightQuantizer::fit(&weights, k, seed);

        let mut w = BitWriter::new();
        let mut recs = ByteWriter::default();

        // Root: positional unigram arcs.
        let root_arcs = fst.arcs(0);
        for (i, a) in root_arcs.iter().enumerate() {
            assert_eq!(
                a.ilabel,
                i as Label + 1,
                "root arc {i} is not word {}",
                i + 1
            );
            assert_eq!(
                a.nextstate,
                i as StateId + 1,
                "root arc {i} breaks the dest invariant"
            );
        }
        recs.u64(0);
        recs.u32(root_arcs.len() as u32);
        recs.u32(0);
        for a in root_arcs {
            w.push(u64::from(quant.encode(a.weight)), WEIGHT_BITS);
        }

        // Remaining states: fixed-width word arcs, optional back-off last.
        for s in 1..fst.num_states() as StateId {
            let arcs = fst.arcs(s);
            let eps_count = arcs.iter().filter(|a| a.ilabel == EPSILON).count();
            assert!(eps_count <= 1, "state {s}: multiple back-off arcs");
            let has_backoff = eps_count == 1;
            let num_word_arcs = arcs.len() - eps_count;
            recs.u64(w.len_bits());
            recs.u32(num_word_arcs as u32);
            recs.u32(u32::from(has_backoff));
            for a in &arcs[..num_word_arcs] {
                assert!(
                    a.ilabel < (1 << WORD_BITS),
                    "word id {} exceeds 18 bits",
                    a.ilabel
                );
                w.push(u64::from(a.ilabel), WORD_BITS);
                w.push(u64::from(a.nextstate), LM_DEST_BITS);
                w.push(u64::from(quant.encode(a.weight)), WEIGHT_BITS);
            }
            if has_backoff {
                let back = arcs.last().unwrap();
                assert_eq!(back.ilabel, EPSILON, "state {s}: back-off arc must be last");
                w.push(u64::from(back.nextstate), LM_DEST_BITS);
                w.push(u64::from(quant.encode(back.weight)), WEIGHT_BITS);
            }
        }

        let mut out = ByteWriter::default();
        out.out.extend_from_slice(&LM_MAGIC);
        out.u32(FORMAT_VERSION);
        out.u32(fst.num_states() as u32);
        out.codebook(&quant);
        out.out.extend(recs.out);
        out.arc_stream(&w.finish());
        let layout = LmLayout::parse(&out.out).expect("a freshly compressed LM parses");
        CompressedLm {
            bytes: SectionBytes::Owned(out.out.into()),
            layout,
        }
    }

    /// Deserializes from the `UNFL` container, validating structure
    /// before returning.
    ///
    /// # Errors
    /// Returns [`ModelIoError`] on bad magic/version, truncation, or
    /// structurally invalid content.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ModelIoError> {
        let lm = CompressedLm {
            layout: LmLayout::parse(bytes)?,
            bytes: SectionBytes::Owned(bytes.into()),
        };
        lm.view().validate()?;
        Ok(lm)
    }

    /// Binds LM section `name` of a shared bundle without copying it;
    /// see [`crate::CompressedAm::from_bundle`] for why the checksum is
    /// verified here. Sessions holding a clone keep the bundle alive
    /// even after a registry retires the name.
    ///
    /// # Errors
    /// [`BundleError::ChecksumMismatch`] on a corrupt payload, plus
    /// anything from [`Bundle::lm_layout`].
    pub fn from_bundle(bundle: std::sync::Arc<Bundle>, name: &str) -> Result<Self, BundleError> {
        let range = bundle.verified_range(SectionKind::Lm, name)?;
        let layout = bundle.lm_layout(name)?;
        Ok(CompressedLm {
            bytes: SectionBytes::Bundle(bundle, range),
            layout,
        })
    }

    #[inline]
    fn view(&self) -> View<'_> {
        let (states, bits) = self.layout.extents.split(self.bytes.get());
        View {
            layout: &self.layout,
            states,
            bits,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.layout.num_states
    }

    /// Number of word-labelled arcs at `s`.
    pub fn num_word_arcs(&self, s: StateId) -> u32 {
        self.view().rec(s).1
    }

    /// Total compressed size in bytes (bit stream + 8-byte state records
    /// + centroid table).
    pub fn size_bytes(&self) -> u64 {
        self.layout.extents.len_bits().div_ceil(8)
            + self.layout.num_states as u64 * 8
            + self.layout.quant.table_bytes()
    }

    /// Decodes the `i`-th word arc of `s`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    pub fn word_arc(&self, s: StateId, i: u32) -> Arc {
        self.view().word_arc(s, i)
    }

    /// Bit offset of the `i`-th word arc of `s` (address modeling).
    pub fn word_arc_bit_offset(&self, s: StateId, i: u32) -> u64 {
        let width = if s == 0 {
            UNIGRAM_ARC_BITS
        } else {
            REGULAR_ARC_BITS
        };
        self.view().rec(s).0 + u64::from(i) * width
    }

    /// The back-off arc of `s` and its bit offset, if present.
    pub fn backoff_arc(&self, s: StateId) -> Option<(Arc, u64)> {
        self.view().backoff(s)
    }

    /// Looks up `word` at `s` — O(1) positional access at the root,
    /// binary search over the fixed-width arcs elsewhere — reporting
    /// the bit offset of every arc the search reads, in order.
    pub fn lookup_with(&self, s: StateId, word: Label, on_probe: impl FnMut(u64)) -> Option<Arc> {
        self.view().lookup(s, word, on_probe)
    }

    /// [`CompressedLm::lookup_with`], summarized: the arc, the probe
    /// count (at least 1) and the last probed offset.
    ///
    /// # Panics
    /// Panics if `word` is epsilon.
    pub fn lookup(&self, s: StateId, word: Label) -> LmLookup {
        assert_ne!(word, EPSILON, "lookup: cannot search for epsilon");
        let mut probes = 0u32;
        let mut bit_offset = self.word_arc_bit_offset(s, 0);
        let arc = self.lookup_with(s, word, |off| {
            probes += 1;
            bit_offset = off;
        });
        LmLookup {
            arc,
            probes: probes.max(1),
            bit_offset,
        }
    }

    /// Resolves `word` from `s` with full back-off semantics; mirrors
    /// `unfold_wfst::compose::resolve_lm_word` on the compressed form.
    ///
    /// Returns `(destination, total_cost, backoff_hops, total_probes)`.
    pub fn resolve(&self, s: StateId, word: Label) -> Option<(StateId, f32, u32, u32)> {
        let mut state = s;
        let mut cost = 0.0f32;
        let mut hops = 0u32;
        let mut probes = 0u32;
        loop {
            let res = self.lookup(state, word);
            probes += res.probes;
            if let Some(arc) = res.arc {
                return Some((arc.nextstate, cost + arc.weight, hops, probes));
            }
            let (back, _) = self.backoff_arc(state)?;
            cost += back.weight;
            state = back.nextstate;
            hops += 1;
            assert!(hops <= 8, "resolve: back-off chain too long");
        }
    }

    /// Serializes to the `UNFL` container (see [`crate::io`]): a copy of
    /// the section bytes the model reads from.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.bytes.get().to_vec()
    }

    /// Fully decompresses into a [`Wfst`] with quantized weights.
    pub fn to_wfst(&self) -> Wfst {
        let v = self.view();
        let n = self.num_states();
        let mut b = WfstBuilder::with_states(n);
        b.set_start(0);
        for s in 0..n as StateId {
            b.set_final(s, 0.0);
        }
        for s in 0..n as StateId {
            let (base, narcs, _) = v.rec(s);
            for i in 0..narcs {
                b.add_arc(s, v.word_arc_at(s, base, i).0);
            }
            if let Some((back, _)) = v.backoff(s) {
                b.add_arc(s, back);
            }
        }
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unfold_lm::{lm_to_wfst, CorpusSpec, DiscountConfig, NGramModel};
    use unfold_wfst::compose::resolve_lm_word;
    use unfold_wfst::SizeModel;

    fn lm_fst() -> Wfst {
        let spec = CorpusSpec {
            vocab_size: 120,
            num_sentences: 500,
            ..Default::default()
        };
        let corpus = spec.generate(77);
        let model = NGramModel::train(&corpus, 120, DiscountConfig::default());
        lm_to_wfst(&model)
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let fst = lm_fst();
        let comp = CompressedLm::compress(&fst, 64, 0);
        let rt = comp.to_wfst();
        assert_eq!(rt.num_states(), fst.num_states());
        assert_eq!(rt.num_arcs(), fst.num_arcs());
        for s in fst.states() {
            let (o, d) = (fst.arcs(s), rt.arcs(s));
            assert_eq!(o.len(), d.len(), "state {s}");
            for (a, b) in o.iter().zip(d) {
                assert_eq!(a.ilabel, b.ilabel);
                assert_eq!(a.nextstate, b.nextstate);
                assert!(
                    (a.weight - b.weight).abs() < 2.0,
                    "tail outlier beyond codebook reach"
                );
            }
        }
    }

    #[test]
    fn lookup_matches_uncompressed_binary_search() {
        let fst = lm_fst();
        let comp = CompressedLm::compress(&fst, 64, 0);
        for s in (0..fst.num_states() as StateId).step_by(13) {
            for word in (1..=120u32).step_by(7) {
                let (want, _) = fst.find_arc(s, word);
                let got = comp.lookup(s, word);
                assert_eq!(
                    want.map(|a| (a.ilabel, a.nextstate)),
                    got.arc.map(|a| (a.ilabel, a.nextstate)),
                    "state {s} word {word}"
                );
            }
        }
    }

    #[test]
    fn root_lookup_is_one_probe() {
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        for word in [1u32, 60, 120] {
            let res = comp.lookup(0, word);
            assert_eq!(res.probes, 1);
            assert_eq!(res.arc.unwrap().nextstate, word);
        }
    }

    #[test]
    fn resolve_matches_uncompressed_up_to_quantization() {
        let fst = lm_fst();
        let comp = CompressedLm::compress(&fst, 64, 0);
        for s in (0..fst.num_states() as StateId).step_by(11) {
            for word in (1..=120u32).step_by(17) {
                let (d0, w0, h0) = resolve_lm_word(&fst, s, word).unwrap();
                let (d1, w1, h1, _) = comp.resolve(s, word).unwrap();
                assert_eq!(d0, d1, "dest mismatch at state {s} word {word}");
                assert_eq!(h0, h1, "hop mismatch at state {s} word {word}");
                // Back-off chains accumulate up to 3 quantized weights.
                assert!((w0 - w1).abs() < 2.0, "cost {w0} vs {w1}");
            }
        }
    }

    #[test]
    fn compression_ratio_is_large() {
        let fst = lm_fst();
        let comp = CompressedLm::compress(&fst, 64, 0);
        let ratio = SizeModel::UNCOMPRESSED.bytes(&fst) as f64 / comp.size_bytes() as f64;
        assert!(ratio > 2.5, "ratio {ratio}");
    }

    #[test]
    fn backoff_arcs_present_on_non_root_states() {
        let fst = lm_fst();
        let comp = CompressedLm::compress(&fst, 64, 0);
        assert!(comp.backoff_arc(0).is_none());
        for s in 1..comp.num_states() as StateId {
            assert!(
                comp.backoff_arc(s).is_some(),
                "state {s} lost its back-off arc"
            );
        }
    }

    #[test]
    fn byte_serialization_roundtrips_exactly() {
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        let bytes = comp.to_bytes();
        let back = CompressedLm::from_bytes(&bytes).expect("valid container");
        assert_eq!(back.num_states(), comp.num_states());
        for s in (0..comp.num_states() as StateId).step_by(13) {
            for w in (1..=120u32).step_by(11) {
                assert_eq!(back.lookup(s, w).arc, comp.lookup(s, w).arc);
            }
            assert_eq!(back.backoff_arc(s), comp.backoff_arc(s));
        }
        assert_eq!(back.to_bytes(), bytes);
    }

    #[test]
    fn corrupt_lm_bytes_are_rejected() {
        use crate::io::ModelIoError;
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        let good = comp.to_bytes();
        let mut bad = good.clone();
        bad[1] = b'?';
        assert_eq!(
            CompressedLm::from_bytes(&bad).unwrap_err(),
            ModelIoError::BadMagic
        );
        assert_eq!(
            CompressedLm::from_bytes(&good[..20]).unwrap_err(),
            ModelIoError::Truncated
        );
        // Corrupt a state-record bit offset: header = 16 bytes,
        // codebook = 64 * 4; records are 16 bytes each, offset first.
        let mut flipped = good.clone();
        let state3_offset = 16 + 64 * 4 + 3 * 16;
        flipped[state3_offset] ^= 0x5A;
        assert!(CompressedLm::from_bytes(&flipped).is_err());
    }

    #[test]
    fn layout_parse_rejects_corrupt_headers() {
        // The header parse alone — all a bundle binding runs — rejects
        // what the full loader does at the header; the LM's fixed-width
        // sweep even catches a flipped state offset without decoding an
        // arc.
        let good = CompressedLm::compress(&lm_fst(), 64, 0).to_bytes();
        let mut bad = good.clone();
        bad[1] = b'?';
        assert_eq!(LmLayout::parse(&bad).unwrap_err(), ModelIoError::BadMagic);
        assert_eq!(
            LmLayout::parse(&good[..20]).unwrap_err(),
            ModelIoError::Truncated
        );
        let mut flipped = good.clone();
        flipped[16 + 64 * 4 + 3 * 16] ^= 0x5A;
        assert!(LmLayout::parse(&flipped).is_err());
    }

    #[test]
    fn full_load_also_checks_what_the_header_parse_defers() {
        // Swap two word arcs of a state: every block still sits where
        // the state table says, so the header parse accepts the bytes,
        // but the one deep validator `from_bytes` runs finds them
        // unsorted.
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        let s = (1..comp.num_states() as StateId)
            .find(|&s| comp.num_word_arcs(s) >= 2)
            .expect("some state has two word arcs");
        let (a0, a1) = (comp.word_arc(s, 0), comp.word_arc(s, 1));
        let mut bytes = comp.to_bytes();
        let stream = bytes.len() - comp.layout.arc_stream_bytes();
        let mut poke = |i: u32, word: u32| {
            let off = comp.word_arc_bit_offset(s, i);
            for b in off..off + u64::from(WORD_BITS) {
                let bit = ((word >> (b - off)) & 1) as u8;
                let byte = &mut bytes[stream + (b / 8) as usize];
                *byte = (*byte & !(1 << (b % 8))) | (bit << (b % 8));
            }
        };
        poke(0, a1.ilabel);
        poke(1, a0.ilabel);
        assert!(LmLayout::parse(&bytes).is_ok());
        assert_eq!(
            CompressedLm::from_bytes(&bytes).unwrap_err(),
            ModelIoError::Corrupt("word arcs not sorted")
        );
    }

    #[test]
    fn arc_widths_match_paper() {
        assert_eq!(REGULAR_ARC_BITS, 45);
        assert_eq!(BACKOFF_ARC_BITS, 27);
        assert_eq!(UNIGRAM_ARC_BITS, 6);
        // The AM's short/full records (Figure 5), from the same widths.
        use crate::io::{AM_DEST_BITS, PDF_BITS, TAG_BITS};
        assert_eq!(TAG_BITS + PDF_BITS + WEIGHT_BITS, 20);
        assert_eq!(
            TAG_BITS + PDF_BITS + WEIGHT_BITS + WORD_BITS + AM_DEST_BITS,
            58
        );
        assert_eq!(crate::am::SHORT_ARC_BITS, 20);
        assert_eq!(crate::am::FULL_ARC_BITS, 58);
    }
}
