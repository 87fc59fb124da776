//! Differential test of the LRU pool against a move-to-back reference.
//!
//! The pool's page-indexed tables are checked against the plainest LRU
//! there is: a vector ordered from least to most recently used. Page ids
//! are spread sparsely up to 2^20 so the tables grow on demand mid-trace.

use bufmgr::{AccessOutcome, BufferPool, PageId, PolicyKind};
use proptest::prelude::*;

/// Reference LRU: `(page, dirty)` from least to most recently used.
struct ReferenceLru {
    frames: usize,
    order: Vec<(PageId, bool)>,
}

impl ReferenceLru {
    fn position(&self, page: PageId) -> Option<usize> {
        self.order.iter().position(|&(p, _)| p == page)
    }

    fn admit(&mut self, page: PageId, dirty: bool) -> Option<(PageId, bool)> {
        let evicted = (self.order.len() >= self.frames).then(|| self.order.remove(0));
        self.order.push((page, dirty));
        evicted
    }

    fn access(&mut self, page: PageId, write: bool) -> AccessOutcome {
        match self.position(page) {
            Some(i) => {
                let (_, dirty) = self.order.remove(i);
                self.order.push((page, dirty || write));
                AccessOutcome::Hit
            }
            None => AccessOutcome::Miss {
                evicted: self.admit(page, write),
            },
        }
    }

    fn prefetch(&mut self, page: PageId) -> Option<(PageId, bool)> {
        match self.position(page) {
            Some(_) => None,
            None => self.admit(page, false),
        }
    }

    fn mark_dirty(&mut self, page: PageId) {
        if let Some(i) = self.position(page) {
            self.order[i].1 = true;
        }
    }

    fn invalidate(&mut self, page: PageId) -> Option<bool> {
        self.position(page).map(|i| self.order.remove(i).1)
    }

    fn flush_all(&mut self) -> Vec<PageId> {
        let mut dirty: Vec<PageId> = self.order.iter().filter(|e| e.1).map(|e| e.0).collect();
        dirty.sort_unstable();
        self.order.clear();
        dirty
    }
}

fn check_resident_pages(pool: &BufferPool, reference: &ReferenceLru) -> Result<(), TestCaseError> {
    let resident: Vec<PageId> = pool.resident_pages().collect();
    prop_assert!(
        resident.windows(2).all(|w| w[0] < w[1]),
        "resident_pages not ascending"
    );
    let mut expected: Vec<PageId> = reference.order.iter().map(|e| e.0).collect();
    expected.sort_unstable();
    prop_assert_eq!(resident, expected);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn lru_pool_matches_the_reference(
        frames in 1usize..24,
        pages in prop::collection::vec(0u32..(1 << 20), 1..48),
        ops in prop::collection::vec((0u32..100, 0usize..48, prop::bool::ANY), 1..600),
    ) {
        let mut pool = BufferPool::new(frames, PolicyKind::Lru);
        let mut reference = ReferenceLru { frames, order: Vec::new() };
        for (step, &(kind, index, write)) in ops.iter().enumerate() {
            let page = pages[index % pages.len()];
            match kind {
                0..=69 => prop_assert_eq!(pool.access(page, write), reference.access(page, write)),
                70..=79 => prop_assert_eq!(pool.prefetch(page), reference.prefetch(page)),
                80..=87 => {
                    pool.mark_dirty(page);
                    reference.mark_dirty(page);
                }
                88..=97 => prop_assert_eq!(pool.invalidate(page), reference.invalidate(page)),
                _ => prop_assert_eq!(pool.flush_all(), reference.flush_all()),
            }
            prop_assert_eq!(pool.resident_count(), reference.order.len());
            // A residency scan walks the whole table (up to 2^20 entries),
            // so sample it.
            if step % 128 == 0 {
                check_resident_pages(&pool, &reference)?;
            }
        }
        check_resident_pages(&pool, &reference)?;
        prop_assert_eq!(pool.flush_all(), reference.flush_all());
        prop_assert_eq!(pool.resident_count(), 0);
    }
}
