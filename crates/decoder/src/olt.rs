//! Software Offset Lookup Table (paper §3.1, Figure 7).
//!
//! The hardware OLT memoizes `(LM state, word id)` → arc-offset results
//! so repeated LM lookups skip the binary search over the state's
//! sorted word arcs. This is the decoder-side counterpart: the same
//! probe-per-lookup-step / install-on-resolve protocol as the
//! simulator's model (`unfold-sim`'s `OffsetLookupTable`), indexed by
//! `state XOR word` like the paper's table, so the two hit rates can be
//! cross-checked against each other (`fig07_offset_table`).
//!
//! Two deliberate deviations from the 6-byte hardware entry:
//!
//! * entries store the **full** `(state, word)` key instead of a 24-bit
//!   tag. Hardware tolerates tag aliasing because a false hit only
//!   mis-predicts an offset that the subsequent arc read validates; in
//!   software a false hit would return a wrong arc, so hits must be
//!   exact.
//! * the table is 4-way set-associative rather than direct-mapped —
//!   software pays nothing for the comparators, and associativity keeps
//!   small tables useful on conflict-heavy working sets.
//!
//! Because an entry caches exactly the word arc the binary search would
//! have found (destination + weight), a hit replays the *identical*
//! float arithmetic the miss path performs: decode output is
//! bit-identical with the table on or off. Only fetch statistics
//! change.

use unfold_wfst::{Label, StateId};

/// Associativity of the software OLT.
pub const OLT_WAYS: usize = 4;

#[derive(Debug, Clone, Copy)]
struct Entry {
    /// Generation stamp; an entry is live iff it matches the table's
    /// current generation (whole-table reset without a sweep of the
    /// entries between utterances).
    gen: u32,
    state: StateId,
    word: Label,
    dest: StateId,
    weight: f32,
}

const DEAD: Entry = Entry {
    gen: 0,
    state: 0,
    word: 0,
    dest: 0,
    weight: 0.0,
};

/// Fixed-capacity, set-associative memo table for LM word-arc
/// resolutions. Capacity 0 disables it ([`SoftOlt::is_enabled`]).
#[derive(Debug, Clone)]
pub struct SoftOlt {
    entries: Vec<Entry>,
    /// Round-robin victim cursor per set.
    cursors: Vec<u8>,
    set_mask: u64,
    gen: u32,
}

impl Default for SoftOlt {
    /// A disabled (zero-capacity) table.
    fn default() -> Self {
        SoftOlt::new(0)
    }
}

impl SoftOlt {
    /// Builds a table with (at least) `entries` slots, rounded up to a
    /// power of two of at least [`OLT_WAYS`]; 0 builds a disabled table.
    pub fn new(entries: usize) -> Self {
        if entries == 0 {
            return SoftOlt {
                entries: Vec::new(),
                cursors: Vec::new(),
                set_mask: 0,
                gen: 1,
            };
        }
        let entries = entries.next_power_of_two().max(OLT_WAYS);
        let sets = entries / OLT_WAYS;
        SoftOlt {
            entries: vec![DEAD; entries],
            cursors: vec![0; sets],
            set_mask: sets as u64 - 1,
            gen: 1,
        }
    }

    /// Whether the table has any capacity.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        !self.entries.is_empty()
    }

    /// Number of slots.
    pub fn num_entries(&self) -> usize {
        self.entries.len()
    }

    /// Invalidates every entry (generation bump) and rewinds every
    /// set's victim cursor (one byte per set, against 80 bytes of
    /// entries). Called between utterances so per-utterance statistics do
    /// not depend on which worker's scratch decoded the previous
    /// utterance — a cursor left where the last utterance stopped
    /// would pick different victims than a fresh table's.
    pub fn reset(&mut self) {
        if self.gen == u32::MAX {
            self.entries.fill(DEAD);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
        self.cursors.fill(0);
    }

    /// The paper indexes "using the XOR of the LM state index and the
    /// word ID"; here that selects the set.
    #[inline]
    fn set_of(&self, state: StateId, word: Label) -> usize {
        ((u64::from(state) ^ u64::from(word)) & self.set_mask) as usize * OLT_WAYS
    }

    /// Looks up `(state, word)`; on a hit returns the cached word arc's
    /// `(destination, weight)`.
    #[inline]
    pub fn probe(&self, state: StateId, word: Label) -> Option<(StateId, f32)> {
        if !self.is_enabled() {
            return None;
        }
        let base = self.set_of(state, word);
        for e in &self.entries[base..base + OLT_WAYS] {
            if e.gen == self.gen && e.state == state && e.word == word {
                return Some((e.dest, e.weight));
            }
        }
        None
    }

    /// Installs a resolved word arc; returns whether a live entry was
    /// evicted. Prefers dead ways; otherwise round-robins the victim.
    pub fn insert(&mut self, state: StateId, word: Label, dest: StateId, weight: f32) -> bool {
        let base = self.set_of(state, word);
        let set = base / OLT_WAYS;
        let mut victim = None;
        for (i, e) in self.entries[base..base + OLT_WAYS].iter().enumerate() {
            if e.gen != self.gen {
                victim = Some((i, false));
                break;
            }
        }
        let (way, evicted) = victim.unwrap_or_else(|| {
            let w = self.cursors[set] as usize % OLT_WAYS;
            self.cursors[set] = self.cursors[set].wrapping_add(1);
            (w, true)
        });
        self.entries[base + way] = Entry {
            gen: self.gen,
            state,
            word,
            dest,
            weight,
        };
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_table_never_hits() {
        let mut t = SoftOlt::new(0);
        assert!(!t.is_enabled());
        assert_eq!(t.probe(1, 2), None);
        t.reset();
        assert_eq!(t.num_entries(), 0);
    }

    #[test]
    fn miss_then_insert_then_hit() {
        let mut t = SoftOlt::new(64);
        assert!(t.is_enabled());
        assert_eq!(t.probe(5, 9), None);
        assert!(!t.insert(5, 9, 42, 1.5), "empty set must not evict");
        assert_eq!(t.probe(5, 9), Some((42, 1.5)));
    }

    #[test]
    fn reset_invalidates_everything() {
        let mut t = SoftOlt::new(64);
        t.insert(5, 9, 42, 1.5);
        t.reset();
        assert_eq!(t.probe(5, 9), None);
    }

    #[test]
    fn capacity_rounds_up() {
        assert_eq!(SoftOlt::new(1).num_entries(), OLT_WAYS);
        assert_eq!(SoftOlt::new(100).num_entries(), 128);
    }

    #[test]
    fn aliasing_pairs_coexist_within_a_set() {
        // (1, 2) and (2, 1) share a set (same XOR) but are distinct
        // keys; associativity must keep both.
        let mut t = SoftOlt::new(OLT_WAYS); // a single set
        t.insert(1, 2, 10, 0.5);
        t.insert(2, 1, 20, 0.25);
        assert_eq!(t.probe(1, 2), Some((10, 0.5)));
        assert_eq!(t.probe(2, 1), Some((20, 0.25)));
    }

    #[test]
    fn full_set_evicts_round_robin() {
        let mut t = SoftOlt::new(OLT_WAYS); // one set, OLT_WAYS ways
                                            // Fill the set with keys of equal XOR (all map to set 0 anyway
                                            // with a single set).
        for i in 0..OLT_WAYS as u32 {
            assert!(!t.insert(i, i + 1, i, 0.0));
        }
        assert!(t.insert(99, 100, 7, 0.0), "full set must evict");
    }

    #[test]
    fn deterministic_across_identical_histories() {
        let drive = || {
            let mut t = SoftOlt::new(16);
            let mut hits = 0;
            for i in 0..200u32 {
                let (s, w) = (i % 13, i % 7 + 1);
                if t.probe(s, w).is_some() {
                    hits += 1;
                } else {
                    t.insert(s, w, s + w, 0.125);
                }
            }
            hits
        };
        assert_eq!(drive(), drive());
    }
}
