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
//!
//! A state record is the paper's 8 bytes: a u32 first-arc bit offset,
//! a u16 word-arc count (the back-off arc excluded) and a u16 of flags,
//! bit 0 meaning "has a back-off arc". The root's count lives in the
//! section header instead, because one positional arc per word passes
//! u16 at the paper's 200 k words; the root record's count and flags
//! are 0.

use unfold_wfst::{Arc, Label, StateId, Wfst, WfstBuilder, EPSILON};

use crate::bits::{BitSlice, BitWriter};
use crate::bundle::{Bundle, BundleError, SectionKind};
use crate::io::{
    rd_rec, rec_count, rec_offset, ByteReader, ByteWriter, Extents, ModelIoError, SectionBytes,
    FORMAT_VERSION, LM_DEST_BITS, LM_MAGIC, LM_WIDTHS, WEIGHT_BITS, WORD_BITS,
};
use crate::quant::WeightQuantizer;

/// Regular arc width: 18 + 21 + 6.
pub const REGULAR_ARC_BITS: u64 = (WORD_BITS + LM_DEST_BITS + WEIGHT_BITS) as u64;
/// Back-off arc width: 21 + 6.
pub const BACKOFF_ARC_BITS: u64 = (LM_DEST_BITS + WEIGHT_BITS) as u64;
/// Unigram arc width: weight only.
pub const UNIGRAM_ARC_BITS: u64 = WEIGHT_BITS as u64;

/// State-record flag: the state has a back-off arc. Every other flag
/// bit is reserved and 0.
const BACKOFF_FLAG: u16 = 1;

/// Longest back-off chain a well-formed LM may have. Binding a model
/// refuses a longer (or cyclic) chain, and the decoder's hot path
/// assumes the bound.
pub const MAX_BACKOFF_HOPS: u32 = 8;

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
    /// The root's positional arc count, one per word.
    root_arcs: u32,
    quant: WeightQuantizer,
    extents: Extents,
    /// Longest back-off chain from any state, recorded by the
    /// structural walk (0 in a header-only parse).
    max_backoff_hops: u32,
}

impl LmLayout {
    /// Parses the header of a serialized LM. O(states): because LM arc
    /// records are fixed-width, the sweep verifies full block
    /// contiguity (root positional block, per-state word arcs, trailing
    /// back-off) without decoding a single arc. Word-arc sortedness,
    /// destination bounds and back-off chains are left to the
    /// structural walk binding a model ([`CompressedLm::from_bundle`])
    /// adds.
    ///
    /// # Errors
    /// Returns [`ModelIoError`] on bad magic/version, truncation, or a
    /// structurally invalid header.
    pub fn parse(bytes: &[u8]) -> Result<LmLayout, ModelIoError> {
        let mut r = ByteReader::new(bytes);
        let num_states = r.model_head(LM_MAGIC, LM_DEST_BITS)?;
        r.widths(&LM_WIDTHS)?;
        let root_arcs = r.u32()?;
        let quant = r.codebook()?;
        let extents = r.extents(num_states)?;
        let (states, _) = extents.split(bytes);
        let len_bits = extents.len_bits();
        let (_, root_count, root_flags) = rd_rec(states, 0);
        if root_count != 0 || root_flags != 0 {
            return Err(ModelIoError::Corrupt("root record has a count or flags"));
        }
        let mut expect = 0u64;
        for i in 0..num_states as StateId {
            let (off, count, flags) = rd_rec(states, i);
            if flags & !BACKOFF_FLAG != 0 {
                return Err(ModelIoError::Corrupt("reserved flag bits set"));
            }
            if u64::from(off) != expect {
                return Err(ModelIoError::Corrupt("arc blocks not contiguous"));
            }
            // A u32 offset plus a u32 count of at most 45-bit arcs
            // cannot overflow.
            let mut end = u64::from(off)
                + if i == 0 {
                    u64::from(root_arcs) * UNIGRAM_ARC_BITS
                } else {
                    u64::from(count) * REGULAR_ARC_BITS
                };
            if flags & BACKOFF_FLAG != 0 {
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
            root_arcs,
            quant,
            extents,
            max_backoff_hops: 0,
        })
    }

    /// `bytes`, the section this layout was parsed from, read through
    /// it.
    #[inline]
    fn view<'a>(&'a self, bytes: &'a [u8]) -> View<'a> {
        let (states, bits) = self.extents.split(bytes);
        View {
            layout: self,
            states,
            bits,
        }
    }

    /// The structural walk [`LmLayout::parse`] skips, over `bytes`, the
    /// section this layout was parsed from; returns the longest
    /// back-off chain.
    pub(crate) fn walk(&self, bytes: &[u8]) -> Result<u32, ModelIoError> {
        self.view(bytes).walk()
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Arc-stream payload size in bytes, its zero tail padding
    /// included: the section's last bytes.
    pub fn arc_stream_bytes(&self) -> usize {
        self.extents.arc_stream_bytes()
    }

    /// State-table size in bytes ([`crate::STATE_RECORD_BYTES`] a
    /// state) — the part of the section the header sweep *does* read
    /// at parse time.
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
    /// `(bit offset, word-arc count, has back-off)` of `s`; the root's
    /// count comes from the header.
    #[inline]
    fn rec(&self, s: StateId) -> (u64, u32, bool) {
        let (off, count, flags) = rd_rec(self.states, s);
        let count = if s == 0 {
            self.layout.root_arcs
        } else {
            u32::from(count)
        };
        (u64::from(off), count, flags & BACKOFF_FLAG != 0)
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

    /// The back-off destination of `s` and the arc's bit offset, if it
    /// has one; reads no weight.
    #[inline]
    fn backoff_dest(&self, s: StateId) -> Option<(StateId, u64)> {
        let (base, narcs, has_backoff) = self.rec(s);
        let off = base + u64::from(narcs) * REGULAR_ARC_BITS;
        has_backoff.then(|| (self.bits.read(off, LM_DEST_BITS) as StateId, off))
    }

    /// The part of the structural check [`LmLayout::parse`] defers:
    /// unigram destinations, word-arc sortedness, destination bounds,
    /// weight indices, and back-off chains that end within
    /// [`MAX_BACKOFF_HOPS`]. Returns the longest chain. Reads each
    /// arc's word and destination, and its weight only when the
    /// codebook is smaller than the index space. O(arcs).
    fn walk(&self) -> Result<u32, ModelIoError> {
        let n = self.layout.num_states as u32;
        let clusters = self.layout.quant.num_clusters() as u64;
        let check_weights = clusters < 1 << WEIGHT_BITS;
        let bad_weight = |off: u64| check_weights && self.bits.read(off, WEIGHT_BITS) >= clusters;
        // Root arc i is word i + 1 into state i + 1.
        let (base, narcs, _) = self.rec(0);
        if narcs >= n {
            return Err(ModelIoError::Corrupt("unigram destination out of range"));
        }
        if check_weights && (0..u64::from(narcs)).any(|i| bad_weight(base + i * UNIGRAM_ARC_BITS)) {
            return Err(ModelIoError::Corrupt("weight index past the codebook"));
        }
        for s in 1..n {
            let (base, narcs, _) = self.rec(s);
            let mut prev_word = 0u32;
            for i in 0..narcs {
                let off = base + u64::from(i) * REGULAR_ARC_BITS;
                // Word and destination are adjacent: one read.
                let fields = self.bits.read(off, WORD_BITS + LM_DEST_BITS);
                let word = (fields & ((1 << WORD_BITS) - 1)) as u32;
                if word <= prev_word {
                    return Err(ModelIoError::Corrupt("word arcs not sorted"));
                }
                prev_word = word;
                if (fields >> WORD_BITS) as u32 >= n {
                    return Err(ModelIoError::Corrupt("destination out of range"));
                }
                if bad_weight(off + u64::from(WORD_BITS + LM_DEST_BITS)) {
                    return Err(ModelIoError::Corrupt("weight index past the codebook"));
                }
            }
            if let Some((dest, off)) = self.backoff_dest(s) {
                if dest >= n {
                    return Err(ModelIoError::Corrupt("back-off destination out of range"));
                }
                if bad_weight(off + u64::from(LM_DEST_BITS)) {
                    return Err(ModelIoError::Corrupt("weight index past the codebook"));
                }
            }
        }
        // Every back-off destination is in range now, so the chains can
        // be followed; a cycle shows as a chain past the bound.
        let mut longest = 0u32;
        for s in 1..n {
            let hops = std::iter::successors(self.backoff_dest(s), |&(d, _)| self.backoff_dest(d))
                .take(MAX_BACKOFF_HOPS as usize + 1)
                .count() as u32;
            if hops > MAX_BACKOFF_HOPS {
                return Err(ModelIoError::Corrupt("back-off chain too long or cyclic"));
            }
            longest = longest.max(hops);
        }
        Ok(longest)
    }
}

impl CompressedLm {
    /// Compresses an LM WFST produced by `unfold_lm::lm_to_wfst`.
    ///
    /// # Panics
    /// Panics if the machine violates the layout invariants: root arcs
    /// not in word order with `dest == word == index + 1`, arcs not
    /// ilabel-sorted, more than one epsilon arc per state, epsilon arcs
    /// not last, a back-off chain longer than [`MAX_BACKOFF_HOPS`], or
    /// fields exceeding their bit budgets (a non-root state with more
    /// than 65 535 word arcs, the record's u16 count; an arc stream
    /// past 2^32 bits, its u32 offset).
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
        // The root's count goes in the header; its record is all zero
        // but the (zero) offset.
        recs.rec(0, 0, 0);
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
            recs.rec(
                rec_offset(w.len_bits(), s),
                rec_count(num_word_arcs, s),
                if has_backoff { BACKOFF_FLAG } else { 0 },
            );
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
        out.widths(&LM_WIDTHS);
        out.u32(root_arcs.len() as u32);
        out.codebook(&quant);
        out.out.extend(recs.out);
        out.arc_stream(&w.finish());
        let mut layout = LmLayout::parse(&out.out).expect("a freshly compressed LM parses");
        layout.max_backoff_hops = layout
            .walk(&out.out)
            .expect("a freshly compressed LM is well formed");
        CompressedLm {
            bytes: SectionBytes::Owned(out.out.into()),
            layout,
        }
    }

    /// Binds LM section `name` of a shared bundle without copying it:
    /// verifies the section checksum, parses its header, and walks it
    /// once — word-arc order, destinations, weight indices, back-off
    /// chains — recording the longest chain. See
    /// [`crate::CompressedAm::from_bundle`] for why both run here.
    /// Sessions holding a clone keep the bundle alive even after a
    /// registry retires the name.
    ///
    /// # Errors
    /// [`BundleError::ChecksumMismatch`] on a corrupt payload,
    /// [`BundleError::Model`] on a structurally invalid one (a cyclic
    /// or over-long back-off chain included), plus anything from
    /// [`Bundle::lm_layout`].
    pub fn from_bundle(bundle: std::sync::Arc<Bundle>, name: &str) -> Result<Self, BundleError> {
        let range = bundle.verified_range(SectionKind::Lm, name)?;
        let mut layout = bundle.lm_layout(name)?;
        layout.max_backoff_hops =
            bundle.walked(SectionKind::Lm, name, |bytes| layout.walk(bytes))?;
        Ok(CompressedLm {
            bytes: SectionBytes::Bundle(bundle, range),
            layout,
        })
    }

    #[inline]
    fn view(&self) -> View<'_> {
        self.layout.view(self.bytes.get())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.layout.num_states
    }

    /// Longest back-off chain from any state (at most
    /// [`MAX_BACKOFF_HOPS`]). Recorded by the structural walk at bind
    /// or compression, so reading it is O(1).
    pub fn max_backoff_hops(&self) -> u32 {
        self.layout.max_backoff_hops
    }

    /// Number of word-labelled arcs at `s`.
    pub fn num_word_arcs(&self, s: StateId) -> u32 {
        self.view().rec(s).1
    }

    /// Total compressed size in bytes, as the paper counts it: the
    /// state table of 8-byte records, the bit stream rounded up to
    /// whole bytes, and the centroid table. The section adds its
    /// header, the stream's word rounding and its tail padding.
    pub fn size_bytes(&self) -> u64 {
        self.layout
            .extents
            .size_bytes(self.layout.quant.table_bytes())
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
            assert!(hops <= MAX_BACKOFF_HOPS, "resolve: back-off chain too long");
        }
    }

    /// Serializes to an `UNFL` section (see [`crate::io`]): a copy of
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

    /// The checks binding a bundle section runs (header parse, then the
    /// structural walk), over bare section bytes.
    fn load(bytes: &[u8]) -> Result<CompressedLm, ModelIoError> {
        let mut layout = LmLayout::parse(bytes)?;
        layout.max_backoff_hops = layout.walk(bytes)?;
        Ok(CompressedLm {
            bytes: SectionBytes::Owned(bytes.into()),
            layout,
        })
    }

    /// Byte offset of state `s`'s record in `comp`'s section: the state
    /// table sits right before the stream's bit length (u64) and word
    /// count (u32).
    fn state_record(comp: &CompressedLm, s: usize) -> usize {
        let layout = &comp.layout;
        comp.to_bytes().len() - layout.arc_stream_bytes() - 12 - layout.state_table_bytes()
            + s * crate::STATE_RECORD_BYTES
    }

    /// Overwrites the `width`-bit field at bit `off` of the arc stream.
    fn poke(comp: &CompressedLm, bytes: &mut [u8], off: u64, width: u32, value: u64) {
        let stream = bytes.len() - comp.layout.arc_stream_bytes();
        for b in off..off + u64::from(width) {
            let bit = ((value >> (b - off)) & 1) as u8;
            let byte = &mut bytes[stream + (b / 8) as usize];
            *byte = (*byte & !(1 << (b % 8))) | (bit << (b % 8));
        }
    }

    #[test]
    fn the_walk_records_the_longest_backoff_chain() {
        let fst = lm_fst();
        let want = (0..fst.num_states() as StateId)
            .map(|s| {
                let (mut state, mut hops) = (s, 0);
                while let Some(back) = fst.arcs(state).iter().find(|a| a.ilabel == EPSILON) {
                    state = back.nextstate;
                    hops += 1;
                }
                hops
            })
            .max()
            .unwrap();
        assert!(want >= 1);
        let comp = CompressedLm::compress(&fst, 64, 0);
        assert_eq!(comp.max_backoff_hops(), want);
        assert_eq!(load(&comp.to_bytes()).unwrap().max_backoff_hops(), want);
    }

    #[test]
    fn the_walk_rejects_cycles_bad_weights_and_bad_unigram_blocks() {
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        // A state backing off to itself.
        let s = (1..comp.num_states() as StateId)
            .find(|&s| comp.backoff_arc(s).is_some())
            .unwrap();
        let mut bytes = comp.to_bytes();
        let (_, off) = comp.backoff_arc(s).unwrap();
        poke(&comp, &mut bytes, off, LM_DEST_BITS, u64::from(s));
        assert!(LmLayout::parse(&bytes).is_ok());
        assert_eq!(
            load(&bytes).unwrap_err(),
            ModelIoError::Corrupt("back-off chain too long or cyclic")
        );
        // Four centroids: a regular arc's weight index of 63 names none.
        let small = CompressedLm::compress(&lm_fst(), 4, 0);
        let s = (1..small.num_states() as StateId)
            .find(|&s| small.num_word_arcs(s) >= 1)
            .unwrap();
        let off = small.word_arc_bit_offset(s, 0) + u64::from(WORD_BITS + LM_DEST_BITS);
        let mut bytes = small.to_bytes();
        poke(&small, &mut bytes, off, WEIGHT_BITS, 63);
        assert_eq!(
            load(&bytes).unwrap_err(),
            ModelIoError::Corrupt("weight index past the codebook")
        );
        // A one-state LM whose root holds one unigram arc: word 1 would
        // lead to state 1, past the state table.
        let mut w = ByteWriter::default();
        w.out.extend_from_slice(&LM_MAGIC);
        w.u32(FORMAT_VERSION);
        w.u32(1);
        w.widths(&LM_WIDTHS);
        w.u32(1);
        w.codebook(&WeightQuantizer::from_centroids(vec![0.0]));
        w.rec(0, 0, 0);
        let mut arcs = BitWriter::new();
        arcs.push(0, WEIGHT_BITS);
        w.arc_stream(&arcs.finish());
        assert!(LmLayout::parse(&w.out).is_ok());
        assert_eq!(
            load(&w.out).unwrap_err(),
            ModelIoError::Corrupt("unigram destination out of range")
        );
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
        let back = load(&bytes).expect("valid section");
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
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        let good = comp.to_bytes();
        let mut bad = good.clone();
        bad[1] = b'?';
        assert_eq!(load(&bad).unwrap_err(), ModelIoError::BadMagic);
        assert_eq!(load(&good[..20]).unwrap_err(), ModelIoError::Truncated);
        // Corrupt a state-record bit offset; records are 8 bytes each,
        // offset first.
        let mut flipped = good.clone();
        flipped[state_record(&comp, 3)] ^= 0x5A;
        assert!(load(&flipped).is_err());
    }

    #[test]
    fn layout_parse_rejects_corrupt_headers() {
        // The header parse alone rejects what the full load does at
        // the header; the LM's fixed-width
        // sweep even catches a flipped state offset without decoding an
        // arc.
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        let good = comp.to_bytes();
        let mut bad = good.clone();
        bad[1] = b'?';
        assert_eq!(LmLayout::parse(&bad).unwrap_err(), ModelIoError::BadMagic);
        assert_eq!(
            LmLayout::parse(&good[..20]).unwrap_err(),
            ModelIoError::Truncated
        );
        let mut flipped = good.clone();
        flipped[state_record(&comp, 3)] ^= 0x5A;
        assert_eq!(
            LmLayout::parse(&flipped).unwrap_err(),
            ModelIoError::Corrupt("arc blocks not contiguous")
        );
    }

    #[test]
    fn full_load_also_checks_what_the_header_parse_defers() {
        // Swap two word arcs of a state: every block still sits where
        // the state table says, so the header parse accepts the bytes,
        // but the structural walk finds them unsorted.
        let comp = CompressedLm::compress(&lm_fst(), 64, 0);
        let s = (1..comp.num_states() as StateId)
            .find(|&s| comp.num_word_arcs(s) >= 2)
            .expect("some state has two word arcs");
        let (a0, a1) = (comp.word_arc(s, 0), comp.word_arc(s, 1));
        let mut bytes = comp.to_bytes();
        for (i, word) in [(0, a1.ilabel), (1, a0.ilabel)] {
            let off = comp.word_arc_bit_offset(s, i);
            poke(&comp, &mut bytes, off, WORD_BITS, u64::from(word));
        }
        assert!(LmLayout::parse(&bytes).is_ok());
        assert_eq!(
            load(&bytes).unwrap_err(),
            ModelIoError::Corrupt("word arcs not sorted")
        );
    }

    #[test]
    #[should_panic(expected = "compress: state 1 has 65536 arcs, past the 16-bit count")]
    fn compress_refuses_a_word_arc_count_past_16_bits() {
        // Root: one positional arc per word. State 1 holds an arc for
        // every word but the last.
        let words = u16::MAX as u32 + 2;
        let mut b = WfstBuilder::with_states(words as usize + 1);
        b.set_start(0);
        for w in 1..=words {
            b.add_arc(0, Arc::new(w, w, 1.0, w));
        }
        for w in 1..words {
            b.add_arc(1, Arc::new(w, w, 2.0, 2));
        }
        CompressedLm::compress(&b.build(), 4, 0);
    }

    #[test]
    fn the_root_count_lives_in_the_header() {
        let fst = lm_fst();
        let comp = CompressedLm::compress(&fst, 64, 0);
        assert_eq!(comp.num_word_arcs(0) as usize, fst.arcs(0).len());
        let bytes = comp.to_bytes();
        let root = state_record(&comp, 0);
        assert_eq!(bytes[root..root + crate::STATE_RECORD_BYTES], [0; 8]);
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
