//! CLOCK and GCLOCK replacement.
//!
//! CLOCK (second chance) approximates LRU with one reference bit per frame
//! and a sweeping hand; GCLOCK generalises the bit to a counter decremented
//! on each sweep, evicting at zero.

use crate::policy::{PageId, ReplacementPolicy};
use std::collections::{BTreeSet, HashMap};

/// One slot of the clock ring.
#[derive(Debug, Clone, Copy)]
struct Slot {
    page: PageId,
    counter: u8,
}

/// Shared ring mechanics for CLOCK and GCLOCK.
#[derive(Debug)]
struct Ring {
    slots: Vec<Slot>,
    index: HashMap<PageId, usize>,
    /// Positions of the freed slots (evictions and invalidations).
    free: BTreeSet<usize>,
    hand: usize,
    /// Counter value a page receives on reference.
    weight: u8,
}

impl Ring {
    fn new(weight: u8) -> Self {
        Ring {
            slots: Vec::new(),
            index: HashMap::new(),
            free: BTreeSet::new(),
            hand: 0,
            weight,
        }
    }

    fn admit(&mut self, page: PageId) {
        debug_assert!(!self.index.contains_key(&page));
        // New pages enter with a zero counter: CLOCK's classic "first
        // chance comes from the first reference".
        let slot = Slot { page, counter: 0 };
        // The first free slot at or after the hand, wrapping: the slot
        // the previous eviction vacated, or one an invalidation freed.
        let Some(&pos) = self
            .free
            .range(self.hand..)
            .next()
            .or_else(|| self.free.first())
        else {
            // Ring still growing (pool warm-up).
            self.index.insert(page, self.slots.len());
            self.slots.push(slot);
            return;
        };
        self.free.remove(&pos);
        self.slots[pos] = slot;
        self.index.insert(page, pos);
        if pos == self.hand {
            // The hand advances past a refill under it, granting the
            // newcomer a full sweep.
            self.hand = (pos + 1) % self.slots.len();
        }
    }

    fn reference(&mut self, page: PageId) {
        if let Some(&pos) = self.index.get(&page) {
            self.slots[pos].counter = self.weight;
        }
    }

    fn select_victim(&mut self) -> PageId {
        assert!(
            !self.index.is_empty(),
            "clock victim requested on empty pool"
        );
        let n = self.slots.len();
        loop {
            let pos = self.hand % n;
            let slot = &mut self.slots[pos];
            if slot.counter == u8::MAX {
                // Freed slot (the pool only asks for a victim when every
                // frame is taken, but skip defensively).
                self.hand = (pos + 1) % n;
                continue;
            }
            if slot.counter == 0 {
                return slot.page;
            }
            slot.counter -= 1;
            self.hand = (pos + 1) % n;
        }
    }

    fn evict(&mut self, page: PageId) {
        if let Some(pos) = self.index.remove(&page) {
            // Mark the slot free and park the hand on it, so the next
            // admission reuses it.
            self.slots[pos].counter = u8::MAX;
            self.free.insert(pos);
            self.hand = pos;
        }
    }
}

/// Second-chance CLOCK (one reference bit).
#[derive(Debug)]
pub struct ClockPolicy {
    ring: Ring,
}

impl ClockPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        ClockPolicy { ring: Ring::new(1) }
    }
}

impl Default for ClockPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplacementPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "CLOCK"
    }

    fn on_admit(&mut self, page: PageId) {
        self.ring.admit(page);
    }

    fn on_access(&mut self, page: PageId) {
        self.ring.reference(page);
    }

    fn select_victim(&mut self) -> PageId {
        self.ring.select_victim()
    }

    fn on_evict(&mut self, page: PageId) {
        self.ring.evict(page);
    }
}

/// Generalized CLOCK: reference sets the counter to `weight`; the sweeping
/// hand decrements; a page is evicted when its counter reaches zero.
#[derive(Debug)]
pub struct GClockPolicy {
    ring: Ring,
}

impl GClockPolicy {
    /// Creates the policy with the given reference weight (≥ 1).
    ///
    /// # Panics
    /// Panics if `weight` is zero or `u8::MAX` (reserved as the free-slot
    /// marker).
    pub fn new(weight: u8) -> Self {
        assert!(weight > 0 && weight < u8::MAX, "weight must be in [1, 254]");
        GClockPolicy {
            ring: Ring::new(weight),
        }
    }
}

impl ReplacementPolicy for GClockPolicy {
    fn name(&self) -> &'static str {
        "GCLOCK"
    }

    fn on_admit(&mut self, page: PageId) {
        self.ring.admit(page);
    }

    fn on_access(&mut self, page: PageId) {
        self.ring.reference(page);
    }

    fn select_victim(&mut self) -> PageId {
        self.ring.select_victim()
    }

    fn on_evict(&mut self, page: PageId) {
        self.ring.evict(page);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::new();
        p.on_admit(1);
        p.on_admit(2);
        p.on_admit(3);
        // Reference 1: its bit is set; victim sweep starts at slot 0,
        // clears 1's bit, moves on, finds 2 (bit 0).
        p.on_access(1);
        assert_eq!(p.select_victim(), 2);
    }

    #[test]
    fn clock_unreferenced_page_evicted_first() {
        let mut p = ClockPolicy::new();
        p.on_admit(1);
        p.on_admit(2);
        p.on_access(1);
        p.on_access(2);
        // Both referenced: hand clears 1, clears 2, wraps, evicts 1.
        assert_eq!(p.select_victim(), 1);
    }

    #[test]
    fn clock_reuses_freed_slot() {
        let mut p = ClockPolicy::new();
        p.on_admit(1);
        p.on_admit(2);
        p.on_admit(3);
        let v = p.select_victim();
        assert_eq!(v, 1);
        p.on_evict(v);
        p.on_admit(4);
        // 4 reuses slot 0 and the hand advances past it, granting the
        // newcomer a full sweep (classic CLOCK): next victim is 2.
        assert_eq!(p.select_victim(), 2);
    }

    #[test]
    fn invalidations_between_evictions_refill_free_slots_only() {
        let mut p = ClockPolicy::new();
        for page in 1..=4 {
            p.on_admit(page);
        }
        // Two pages dropped without a victim search (the pool's
        // invalidation path), then two admissions.
        p.on_evict(2);
        p.on_evict(3);
        p.on_admit(5);
        p.on_admit(6);
        for page in [1, 4, 5, 6] {
            let pos = p.ring.index[&page];
            assert_eq!(p.ring.slots[pos].page, page, "page {page} lost its slot");
        }
        let mut victims: Vec<PageId> = (0..4)
            .map(|_| {
                let victim = p.select_victim();
                p.on_evict(victim);
                victim
            })
            .collect();
        victims.sort_unstable();
        assert_eq!(victims, [1, 4, 5, 6]);
    }

    #[test]
    fn gclock_weighted_pages_survive_longer() {
        let mut p = GClockPolicy::new(3);
        p.on_admit(1);
        p.on_admit(2);
        p.on_access(1); // counter 3
                        // Sweep: decrement 1 → 2, find 2 at counter 0.
        assert_eq!(p.select_victim(), 2);
        p.on_evict(2);
        p.on_admit(3);
        // 1 has counter 2 left, 3 has 0 → 3 is the next victim.
        assert_eq!(p.select_victim(), 3);
    }

    #[test]
    #[should_panic(expected = "weight must be")]
    fn gclock_rejects_zero_weight() {
        let _ = GClockPolicy::new(0);
    }
}
