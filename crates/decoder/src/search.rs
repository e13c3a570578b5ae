//! Shared beam-search machinery: deterministic hash maps, pruning
//! thresholds, and token relaxation used by both decoders.

use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use unfold_wfst::{Semiring, TropicalWeight};

/// Deterministic FNV-style hasher so decode traces (and therefore
/// simulator results) are reproducible across runs — `RandomState`
/// would randomize token iteration order.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetHasher(u64);

impl Hasher for DetHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        const PRIME: u64 = 0x0000_0100_0000_01B3;
        let mut h = if self.0 == 0 {
            0xCBF2_9CE4_8422_2325
        } else {
            self.0
        };
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(PRIME);
        }
        self.0 = h;
    }

    fn write_u64(&mut self, v: u64) {
        // Strong single-shot mix (Stafford's variant-13 finalizer).
        let mut z = v.wrapping_add(self.0).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }

    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }
}

/// Deterministic hash map keyed by token keys.
pub type TokenMap<K, V> = HashMap<K, V, BuildHasherDefault<DetHasher>>;

/// A live search hypothesis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Token {
    /// Accumulated path cost.
    pub cost: f32,
    /// Index of the hypothesis's last word in the lattice
    /// ([`crate::lattice::LATTICE_ROOT`] if no word yet).
    pub lat: u32,
}

/// Computes the pruning threshold for a token population: `best + beam`,
/// tightened to the `max_active`-th smallest cost when the population
/// exceeds `max_active` (histogram-style pruning).
pub fn prune_threshold<K>(tokens: &TokenMap<K, Token>, beam: f32, max_active: usize) -> f32
where
    K: std::hash::Hash + Eq,
{
    if tokens.is_empty() {
        return f32::INFINITY;
    }
    // Tropical fold: `plus` keeps the better hypothesis, `times` extends
    // it by the beam. Bit-identical to the bare f32 min/add it replaces
    // (`from_cost(c).plus(acc)` keeps `acc` for NaN costs, exactly like
    // the `c < acc` predicate did).
    let best = tokens.values().fold(TropicalWeight::zero(), |acc, t| {
        TropicalWeight::from_cost(t.cost).plus(acc)
    });
    let mut thr = best.times(TropicalWeight::from_cost(beam)).value();
    if tokens.len() > max_active {
        let mut costs: Vec<f32> = tokens.values().map(|t| t.cost).collect();
        let (_, nth, _) = costs.select_nth_unstable_by(max_active - 1, histogram_rank);
        thr = thr.min(*nth);
    }
    thr
}

/// The order histogram pruning ranks costs in: numbers in IEEE total
/// order (so `-0.0` ranks before `+0.0`), then every NaN, all equal.
///
/// A NaN cost can reach the search (a serve client's precomputed score
/// rows pass through verbatim), so the rank must not panic on one, and
/// a NaN must never be the `max_active`-th best while numbers remain.
/// Telling the zeros apart makes the selected value's bits depend only
/// on the costs, not on the order they are stored in, which is what
/// lets [`prune_threshold`] and [`prune_threshold_store`] agree bit for
/// bit. A selected NaN leaves the threshold alone (`f32::min` ignores
/// it).
fn histogram_rank(a: &f32, b: &f32) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (false, false) => a.total_cmp(b),
        (a_nan, b_nan) => a_nan.cmp(&b_nan),
    }
}

/// [`prune_threshold`] over a population's cost lane, staging the
/// cost copy in a caller-owned buffer so the per-frame histogram
/// selection performs no allocation in steady state.
///
/// The SoA lanes hold the costs as one contiguous `f32` slice, so
/// the best-cost fold is a straight-line slice reduction the
/// autovectorizer handles, and the `max_active` staging copy is a
/// single `extend_from_slice` (memcpy) followed by an O(n)
/// `select_nth_unstable_by` — no per-token iterator plumbing.
pub fn prune_threshold_store(
    cs: &[f32],
    beam: f32,
    max_active: usize,
    costs: &mut Vec<f32>,
) -> f32 {
    if cs.is_empty() {
        return f32::INFINITY;
    }
    // The tropical fold of [`prune_threshold`], over eight independent
    // lanes so no compare waits on the one before it. Each step keeps
    // `c <= lane ? c : lane`, so a NaN is never picked, exactly as in
    // the serial fold. Lanes and remainder then fold the same way. The
    // result differs from the serial fold's at most in the sign of a
    // zero best, and `best + beam` is the same value for both zeros
    // because the beam is finite and positive (checked by the config
    // builder): `thr` is bit-identical.
    let mut lanes = [TropicalWeight::zero(); 8];
    let chunks = cs.chunks_exact(8);
    let rest = chunks.remainder();
    for chunk in chunks {
        for (lane, &c) in lanes.iter_mut().zip(chunk) {
            *lane = TropicalWeight::from_cost(c).plus(*lane);
        }
    }
    let best = lanes
        .into_iter()
        .chain(rest.iter().map(|&c| TropicalWeight::from_cost(c)))
        .fold(TropicalWeight::zero(), |acc, w| w.plus(acc));
    let mut thr = best.times(TropicalWeight::from_cost(beam)).value();
    if cs.len() > max_active {
        costs.clear();
        costs.extend_from_slice(cs);
        let (_, nth, _) = costs.select_nth_unstable_by(max_active - 1, histogram_rank);
        thr = thr.min(*nth);
    }
    thr
}

const EMPTY_SLOT: u32 = u32::MAX;

/// Home-slot hash of a packed token key, masked to the index's low
/// bits by the caller: one multiply by the 64-bit golden ratio, then
/// the high half folded down, because the product's low bits see only
/// the key's low (`lm_state`) half. Which slot a key lands in is never
/// observable (iteration is insertion order, and `hash_insert` events
/// carry the key), so the hash only has to spread keys, not be strong.
#[inline]
fn slot_hash(key: u64) -> u64 {
    let z = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z ^ (z >> 32)
}

/// Outcome of one open-addressing walk over a [`TokenStore`] index:
/// either the dense position of an existing entry, or the slot where a
/// fresh key would land. Lets the decoder's relax path pay one hash
/// walk instead of the two a `get`-then-`insert` pair costs.
///
/// A `Probe` is only valid until the next mutation of the store it came
/// from; [`TokenStore::insert_probed`] re-walks defensively whenever
/// the index has grown in between.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Index slot where the walk terminated.
    slot: u32,
    /// Dense entry position, or [`EMPTY_SLOT`] if the key is absent.
    entry: u32,
    /// Index capacity at probe time (detects growth before commit).
    cap: u32,
}

impl Probe {
    /// Dense entry position of the existing token, if the key was
    /// present.
    #[inline]
    pub fn entry(&self) -> Option<u32> {
        (self.entry != EMPTY_SLOT).then_some(self.entry)
    }
}

/// A token population's dense lanes, laid out struct-of-arrays:
/// parallel `keys`, `costs` and `lats`, in insertion order, with no
/// index over them.
///
/// Each `keys` lane packs the token's two `u32` state ids —
/// `(am_state << 32) | lm_state` — into one `u64`, so the key compare
/// in the index walk is a single 64-bit op and the kernel can split
/// lanes with shifts instead of field loads. `costs` is one contiguous
/// `f32` slice, which is what lets the beam-threshold fold, the
/// prune-survivor scan, and the histogram staging copy in
/// [`prune_threshold_store`] compile to straight-line vectorizable
/// loops instead of pointer-chasing `(key, Token)` pairs.
///
/// A frame only ever *reads* the population entering it, so lanes
/// alone are a complete frame source: this is what a paused streaming
/// session parks between frames ([`crate::SessionScratch`]). Having no
/// index, a parked population cannot be probed or inserted into; the
/// frame being built is a [`TokenStore`], which is these lanes plus
/// the index.
#[derive(Debug, Clone, Default)]
pub struct TokenLanes {
    /// Packed `(am_state << 32) | lm_state` token keys, insertion order.
    keys: Vec<u64>,
    /// Accumulated path cost per token (parallel to `keys`).
    costs: Vec<f32>,
    /// Lattice backpointer per token (parallel to `keys`).
    lats: Vec<u32>,
}

impl TokenLanes {
    /// A parked population gives capacity back once it exceeds this
    /// many times its live tokens (floored at [`TokenLanes::PARK_FLOOR`]).
    const PARK_SHRINK_AT: usize = 4;
    /// Token count below which parked capacity is never given back.
    const PARK_FLOOR: usize = 64;

    /// Number of live tokens.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Drops every token, keeping the lane allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        self.costs.clear();
        self.lats.clear();
    }

    /// Replaces this population with a copy of `src`'s lanes, one
    /// 16-byte copy per token. First it gives capacity back if a past
    /// wide frame left it over [`TokenLanes::PARK_SHRINK_AT`] times the
    /// live tokens, keeping twice them: a transient wide frame does not
    /// pin its capacity for the rest of a session, and a population
    /// hovering near one size does not reallocate frame after frame.
    pub fn park(&mut self, src: &TokenLanes) {
        self.clear();
        let live = src.len().max(Self::PARK_FLOOR);
        if self.keys.capacity() > Self::PARK_SHRINK_AT * live {
            self.keys.shrink_to(2 * live);
            self.costs.shrink_to(2 * live);
            self.lats.shrink_to(2 * live);
        }
        self.keys.extend_from_slice(&src.keys);
        self.costs.extend_from_slice(&src.costs);
        self.lats.extend_from_slice(&src.lats);
    }

    /// Packed token keys in insertion order.
    pub fn keys_slice(&self) -> &[u64] {
        &self.keys
    }

    /// Path costs in insertion order (parallel to
    /// [`TokenLanes::keys_slice`]).
    pub fn costs(&self) -> &[f32] {
        &self.costs
    }

    /// Lattice backpointers in insertion order (parallel to
    /// [`TokenLanes::keys_slice`]).
    pub fn lats(&self) -> &[u32] {
        &self.lats
    }

    /// The `(key, token)` pair at dense position `i`.
    #[inline]
    pub fn pair_at(&self, i: usize) -> (u64, Token) {
        (
            self.keys[i],
            Token {
                cost: self.costs[i],
                lat: self.lats[i],
            },
        )
    }

    /// `(key, token)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, Token)> + '_ {
        self.keys
            .iter()
            .zip(self.costs.iter().zip(self.lats.iter()))
            .map(|(&k, (&cost, &lat))| (k, Token { cost, lat }))
    }

    /// Tokens in insertion order.
    pub fn values(&self) -> impl Iterator<Item = Token> + '_ {
        self.costs
            .iter()
            .zip(self.lats.iter())
            .map(|(&cost, &lat)| Token { cost, lat })
    }

    /// Keys in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied()
    }

    /// Tokens the key lane can hold without reallocating (test hook).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.keys.capacity()
    }

    /// Whether the lanes are within the parking bound: capacity at most
    /// [`TokenLanes::PARK_SHRINK_AT`] times the live tokens (floored).
    #[cfg(test)]
    pub(crate) fn within_park_bound(&self) -> bool {
        let bound = Self::PARK_SHRINK_AT * self.len().max(Self::PARK_FLOOR);
        [
            self.keys.capacity(),
            self.costs.capacity(),
            self.lats.capacity(),
        ]
        .iter()
        .all(|&c| c <= bound)
    }
}

/// The token population of the frame being built: [`TokenLanes`] plus
/// an open-addressing index over them, so relaxation can find a key's
/// entry. Reads of the lanes go through `Deref`; every write goes
/// through the store, which keeps lanes and index in step.
///
/// The dense lanes make iteration order *insertion order* — a property
/// `HashMap` lacks: its iteration order depends on table capacity, so a
/// map reused across frames (larger capacity than a fresh one) would
/// visit tokens differently and perturb traces, stats, and ultimately
/// pruning decisions. Insertion order is capacity-independent, which is
/// what lets [`crate::DecodeScratch`] be reused across frames,
/// utterances, and worker threads while keeping decode output
/// bit-identical to a from-scratch run — and what lets a population
/// move between a worker's store and a session's parked lanes without
/// changing any later frame.
#[derive(Debug, Clone, Default)]
pub struct TokenStore {
    /// The population itself.
    lanes: TokenLanes,
    /// Power-of-two slot array holding dense positions
    /// ([`EMPTY_SLOT`] marks a free slot).
    index: Vec<u32>,
}

impl std::ops::Deref for TokenStore {
    type Target = TokenLanes;

    #[inline]
    fn deref(&self) -> &TokenLanes {
        &self.lanes
    }
}

impl TokenStore {
    /// Drops every token but keeps all four lane allocations, at a
    /// cost that follows the live population rather than the index.
    ///
    /// The index only grows, so after one wide frame it can be far
    /// larger than a typical frontier. While the store is under 1/8
    /// full, `clear` empties just the slots in use: for each entry it
    /// re-walks the key's probe sequence to the slot holding that
    /// entry. The walk must not stop at an empty slot, because earlier
    /// entries' slots on the same run are already emptied. A fuller
    /// store is reset with one sequential `fill`, which beats that many
    /// scattered walks. The 1/8 crossover is measured, not guessed:
    /// walking every store, or filling from 1/16 or 1/32 full, decoded
    /// slower (DESIGN.md §13).
    pub fn clear(&mut self) {
        if self.lanes.keys.len() * 8 < self.index.len() {
            let mask = self.index.len() - 1;
            for (i, &k) in self.lanes.keys.iter().enumerate() {
                let mut slot = slot_hash(k) as usize & mask;
                while self.index[slot] != i as u32 {
                    slot = (slot + 1) & mask;
                }
                self.index[slot] = EMPTY_SLOT;
            }
        } else {
            self.index.fill(EMPTY_SLOT);
        }
        self.lanes.clear();
    }

    /// One open-addressing walk for `key`: where it lives, or where it
    /// would go.
    #[inline]
    pub fn probe(&self, key: u64) -> Probe {
        if self.index.is_empty() {
            return Probe {
                slot: 0,
                entry: EMPTY_SLOT,
                cap: 0,
            };
        }
        let mask = self.index.len() - 1;
        let mut slot = slot_hash(key) as usize & mask;
        loop {
            match self.index[slot] {
                EMPTY_SLOT => {
                    return Probe {
                        slot: slot as u32,
                        entry: EMPTY_SLOT,
                        cap: self.index.len() as u32,
                    }
                }
                e => {
                    if self.lanes.keys[e as usize] == key {
                        return Probe {
                            slot: slot as u32,
                            entry: e,
                            cap: self.index.len() as u32,
                        };
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }

    /// The token stored under `key`, if any.
    #[cfg(test)]
    pub fn get(&self, key: u64) -> Option<Token> {
        let e = self.probe(key).entry()?;
        Some(self.pair_at(e as usize).1)
    }

    /// Overwrites the token at dense position `entry` in place (the key
    /// keeps its insertion position; the index is untouched).
    #[inline]
    pub fn update_entry(&mut self, entry: u32, tok: Token) {
        self.lanes.costs[entry as usize] = tok.cost;
        self.lanes.lats[entry as usize] = tok.lat;
    }

    /// Inserts or overwrites `key` and returns its entry index. An
    /// overwrite keeps the entry's original insertion position.
    pub fn insert(&mut self, key: u64, tok: Token) -> u32 {
        let p = self.probe(key);
        self.insert_probed(p, key, tok);
        p.entry().unwrap_or(self.len() as u32 - 1)
    }

    /// Commits an insert-or-overwrite at a previously probed position,
    /// skipping the second index walk `get`-then-`insert` would pay.
    /// Falls back to a fresh walk if the index grew (or needs to grow)
    /// since the probe. The commit inlines into the caller; growth and
    /// the re-walk run out of line in [`TokenStore::insert_regrown`].
    #[inline]
    pub fn insert_probed(&mut self, p: Probe, key: u64, tok: Token) {
        if let Some(e) = p.entry() {
            self.update_entry(e, tok);
            return;
        }
        if self.len() * 2 >= self.index.len() || self.index.len() as u32 != p.cap {
            self.insert_regrown(key, tok);
            return;
        }
        self.commit(p.slot as usize, key, tok);
    }

    /// The rare half of [`TokenStore::insert_probed`]: grows the index
    /// if it is half full, then walks to the key's free slot, because
    /// the probe's slot is stale once the index has changed.
    #[cold]
    #[inline(never)]
    fn insert_regrown(&mut self, key: u64, tok: Token) {
        if self.len() * 2 >= self.index.len() {
            self.grow();
        }
        let mask = self.index.len() - 1;
        let mut slot = slot_hash(key) as usize & mask;
        while self.index[slot] != EMPTY_SLOT {
            slot = (slot + 1) & mask;
        }
        self.commit(slot, key, tok);
    }

    /// Appends a new entry and points the free index `slot` at it.
    #[inline(always)]
    fn commit(&mut self, slot: usize, key: u64, tok: Token) {
        debug_assert_eq!(self.index[slot], EMPTY_SLOT);
        self.index[slot] = self.len() as u32;
        self.lanes.keys.push(key);
        self.lanes.costs.push(tok.cost);
        self.lanes.lats.push(tok.lat);
    }

    fn grow(&mut self) {
        let cap = (self.index.len() * 2).max(64);
        self.index.clear();
        self.index.resize(cap, EMPTY_SLOT);
        let mask = cap - 1;
        for (i, &k) in self.lanes.keys.iter().enumerate() {
            let mut slot = slot_hash(k) as usize & mask;
            while self.index[slot] != EMPTY_SLOT {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = i as u32;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::LATTICE_ROOT;

    fn map_of(costs: &[f32]) -> TokenMap<u32, Token> {
        let mut m = TokenMap::default();
        for (i, &c) in costs.iter().enumerate() {
            m.insert(
                i as u32,
                Token {
                    cost: c,
                    lat: LATTICE_ROOT,
                },
            );
        }
        m
    }

    #[test]
    fn beam_threshold() {
        let m = map_of(&[5.0, 3.0, 9.0]);
        assert_eq!(prune_threshold(&m, 2.0, 100), 5.0);
    }

    #[test]
    fn histogram_tightens_threshold() {
        let m = map_of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        // Beam alone allows everything; max_active=2 keeps the 2 best.
        let thr = prune_threshold(&m, 100.0, 2);
        assert_eq!(thr, 2.0);
    }

    #[test]
    fn empty_population() {
        let m: TokenMap<u32, Token> = TokenMap::default();
        assert_eq!(prune_threshold(&m, 5.0, 10), f32::INFINITY);
    }

    fn store_of(costs: &[f32]) -> TokenStore {
        let mut s = TokenStore::default();
        for (i, &c) in costs.iter().enumerate() {
            s.insert(i as u64, tok(c));
        }
        s
    }

    /// NaN costs rank after every number in the histogram selection:
    /// no panic, and a NaN is never the `max_active`-th best while
    /// numbers remain. A selected NaN leaves the beam threshold alone.
    #[test]
    fn histogram_ranks_nan_after_every_number() {
        let nan = f32::NAN;
        let costs = [nan, 3.0, 1.0, nan, 2.0, nan];
        let mut buf = Vec::new();
        for (max_active, want) in [(1, 1.0), (2, 2.0), (3, 3.0), (4, 101.0), (5, 101.0)] {
            assert_eq!(prune_threshold(&map_of(&costs), 100.0, max_active), want);
            assert_eq!(
                prune_threshold_store(store_of(&costs).costs(), 100.0, max_active, &mut buf),
                want
            );
        }
    }

    /// A cost the beam threshold has to handle: a finite number (drawn
    /// twice as often, from two ranges so near-ties occur), either zero,
    /// either infinity, or NaN.
    fn any_cost() -> impl proptest::prelude::Strategy<Value = f32> {
        use proptest::prelude::*;
        prop_oneof![
            (-40.0f32..40.0),
            (-1.0f32..1.0),
            Just(0.0f32),
            Just(-0.0f32),
            Just(f32::INFINITY),
            Just(f32::NEG_INFINITY),
            Just(f32::NAN),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The SoA threshold — an eight-lane best fold and a histogram
        /// selection over a staging copy — equals, bit for bit, the
        /// scalar `TokenMap` threshold `FullyComposedDecoder` uses, for
        /// every length up to 80 (so every remainder mod 8) and with
        /// `max_active` below, at and above the population. Both kernels
        /// call `prune_threshold_store`, so the kernel identity tests
        /// cannot see a change to it; this test is its guard.
        #[test]
        fn lane_fold_threshold_equals_the_scalar_fold(
            costs in proptest::collection::vec(any_cost(), 0..81),
            beam in 0.25f32..20.0,
            pick in 1usize..90,
        ) {
            let (map, store) = (map_of(&costs), store_of(&costs));
            let mut buf = Vec::new();
            let n = costs.len();
            for max_active in [1, pick, n.max(1), n / 2 + 1, n + 1, usize::MAX] {
                let want = prune_threshold(&map, beam, max_active);
                let got = prune_threshold_store(store.costs(), beam, max_active, &mut buf);
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }

    fn tok(cost: f32) -> Token {
        Token {
            cost,
            lat: LATTICE_ROOT,
        }
    }

    #[test]
    fn store_iterates_in_insertion_order_across_growth() {
        let mut s = TokenStore::default();
        // Far past the initial 64-slot index so grow() runs repeatedly.
        for i in 0..500u64 {
            s.insert(i * 0x9E37_79B9, tok(i as f32));
        }
        let keys: Vec<u64> = s.keys().collect();
        let want: Vec<u64> = (0..500u64).map(|i| i * 0x9E37_79B9).collect();
        assert_eq!(keys, want);
        assert_eq!(s.keys_slice(), &want[..]);
        for (i, (k, t)) in s.iter().enumerate() {
            assert_eq!((k, t), s.pair_at(i));
            assert_eq!(t.cost, i as f32);
        }
    }

    #[test]
    fn store_overwrite_keeps_position_and_lanes_stay_parallel() {
        let mut s = TokenStore::default();
        s.insert(10, tok(1.0));
        s.insert(20, tok(2.0));
        s.insert(10, Token { cost: 0.5, lat: 7 });
        assert_eq!(s.len(), 2);
        assert_eq!(s.keys_slice(), &[10, 20]);
        assert_eq!(s.costs(), &[0.5, 2.0]);
        assert_eq!(s.lats(), &[7, LATTICE_ROOT]);
        assert_eq!(s.get(10), Some(Token { cost: 0.5, lat: 7 }));
    }

    #[test]
    fn probe_then_commit_matches_get_then_insert() {
        let mut a = TokenStore::default();
        let mut b = TokenStore::default();
        // Deterministic pseudo-random key stream with repeats.
        let mut x = 0x1234_5678u64;
        for i in 0..300 {
            x = x
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            let key = (x >> 33) % 97;
            let t = tok(i as f32);
            // Path A: fused probe/commit (possibly via update_entry).
            let p = a.probe(key);
            match p.entry() {
                Some(e) => a.update_entry(e, t),
                None => a.insert_probed(p, key, t),
            }
            // Path B: classic insert.
            b.insert(key, t);
            assert_eq!(a.get(key), b.get(key));
        }
        assert_eq!(a.len(), b.len());
        let av: Vec<(u64, Token)> = a.iter().collect();
        let bv: Vec<(u64, Token)> = b.iter().collect();
        assert_eq!(av, bv);
    }

    #[test]
    fn stale_probe_is_safe_after_growth() {
        let mut s = TokenStore::default();
        let p = s.probe(999); // probed while index was empty
        for i in 0..100u64 {
            s.insert(i, tok(0.0));
        }
        s.insert_probed(p, 999, tok(3.0));
        assert_eq!(s.get(999), Some(tok(3.0)));
        assert_eq!(s.len(), 101);
    }

    #[test]
    fn park_copies_the_lanes_in_order_and_gives_back_a_wide_frames_capacity() {
        let wide = store_of(&(0..5_000).map(|i| i as f32).collect::<Vec<_>>());
        let narrow = store_of(&[3.0, 1.0, 2.0]);
        let mut parked = TokenLanes::default();
        parked.park(&wide);
        assert_eq!(parked.keys_slice(), wide.keys_slice());
        assert!(parked.capacity() >= 5_000);
        parked.park(&narrow);
        let got: Vec<(u64, Token)> = parked.iter().collect();
        let want: Vec<(u64, Token)> = narrow.iter().collect();
        assert_eq!(got, want);
        assert!(parked.within_park_bound(), "capacity {}", parked.capacity());
        // At or under the floor nothing is given back, so a small
        // population does not reallocate every park.
        let cap = parked.capacity();
        parked.park(&store_of(&[1.0]));
        assert_eq!(parked.capacity(), cap);
    }

    #[test]
    fn clear_keeps_tokens_out_but_reuses_index() {
        let mut s = TokenStore::default();
        for i in 0..50u64 {
            s.insert(i, tok(0.0));
        }
        s.clear();
        assert_eq!(s.len(), 0);
        assert_eq!(s.get(3), None);
        s.insert(3, tok(1.0));
        assert_eq!(s.get(3), Some(tok(1.0)));
        assert_eq!(s.keys_slice(), &[3]);
    }

    /// Insert-or-overwrite into the `Vec` oracle, keeping first-insertion
    /// order like the store.
    fn oracle_insert(oracle: &mut Vec<(u64, Token)>, key: u64, t: Token) {
        match oracle.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = t,
            None => oracle.push((key, t)),
        }
    }

    fn assert_matches_oracle(s: &TokenStore, oracle: &[(u64, Token)]) {
        let got: Vec<(u64, Token)> = s.iter().collect();
        assert_eq!(got, oracle, "store diverged from the oracle");
        for &(k, t) in oracle {
            assert_eq!(s.get(k), Some(t), "key {k:#x} unreachable");
        }
    }

    /// Clears through whichever path the fill level picks, records which
    /// one, and checks the index came back empty.
    fn clear_and_check(s: &mut TokenStore, oracle: &mut Vec<(u64, Token)>, paths: &mut [bool; 2]) {
        paths[usize::from(s.len() * 8 < s.index.len())] = true;
        s.clear();
        oracle.clear();
        assert_eq!(s.len(), 0);
        assert!(
            s.index.iter().all(|&e| e == EMPTY_SLOT),
            "clear left an index slot in use"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Random insert / overwrite / probed-insert (fresh and stale
        /// across growth) / burst / clear sequences keep the store equal
        /// to a `Vec` oracle, and every clear — through the per-entry
        /// walk or the fill — leaves every index slot empty.
        #[test]
        fn store_matches_a_vec_oracle_through_clears_and_growth(
            ops in proptest::collection::vec((0u8..10, 0u64..48, 0u64..48), 1..160),
        ) {
            let mut s = TokenStore::default();
            let mut oracle: Vec<(u64, Token)> = Vec::new();
            let mut paths = [false; 2];
            let mut fresh = 1u64 << 40;
            let mut step = 0u32;
            let mut t = |cost| {
                step += 1;
                Token { cost, lat: step }
            };
            for &(op, am, lm) in &ops {
                let key = (am << 32) | lm;
                match op {
                    0..=3 => {
                        let tk = t(lm as f32);
                        s.insert(key, tk);
                        oracle_insert(&mut oracle, key, tk);
                    }
                    4..=5 => {
                        // The kernel's relax: one probe, then commit.
                        let tk = t(am as f32);
                        let p = s.probe(key);
                        match p.entry() {
                            Some(e) => s.update_entry(e, tk),
                            None => s.insert_probed(p, key, tk),
                        }
                        oracle_insert(&mut oracle, key, tk);
                    }
                    6 => {
                        // A probe of an absent key, made stale by the
                        // inserts that grow the index under it (only on
                        // a small index: each one doubles the store).
                        let p = s.probe(key);
                        if p.entry().is_none() && s.index.len() <= 1024 {
                            let before = s.index.len();
                            while s.index.len() == before {
                                fresh += 1;
                                let tk = t(0.5);
                                s.insert(fresh, tk);
                                oracle.push((fresh, tk));
                            }
                            let tk = t(1.5);
                            s.insert_probed(p, key, tk);
                            oracle_insert(&mut oracle, key, tk);
                        }
                    }
                    7 => {
                        // A burst of new keys: pushes the index through
                        // several doublings over a case.
                        for _ in 0..am * lm / 4 {
                            fresh += 1;
                            let tk = t(2.5);
                            s.insert(fresh, tk);
                            oracle.push((fresh, tk));
                        }
                    }
                    _ => clear_and_check(&mut s, &mut oracle, &mut paths),
                }
                assert_matches_oracle(&s, &oracle);
            }
            // Close every case on both clear paths: a full store is
            // filled, a sparse one walked.
            while s.len() * 2 + 2 < s.index.len() || s.index.len() < 1024 {
                fresh += 1;
                let tk = t(3.5);
                s.insert(fresh, tk);
                oracle.push((fresh, tk));
            }
            clear_and_check(&mut s, &mut oracle, &mut paths);
            for k in 0..9u64 {
                let tk = t(4.5);
                s.insert(k << 32, tk);
                oracle_insert(&mut oracle, k << 32, tk);
            }
            assert_matches_oracle(&s, &oracle);
            clear_and_check(&mut s, &mut oracle, &mut paths);
            assert_eq!(paths, [true, true], "both clear paths ran");
            // The index only grows, from 64 slots by doubling: at least
            // five grows ran.
            assert!(s.index.len() >= 1024);
        }
    }

    #[test]
    fn hasher_is_deterministic() {
        use std::hash::Hash;
        let mut a = DetHasher::default();
        let mut b = DetHasher::default();
        42u64.hash(&mut a);
        42u64.hash(&mut b);
        assert_eq!(a.finish(), b.finish());
        let mut c = DetHasher::default();
        43u64.hash(&mut c);
        assert_ne!(a.finish(), c.finish());
    }
}
