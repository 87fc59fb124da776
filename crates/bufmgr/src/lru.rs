//! LRU replacement: evict the least recently used page.
//!
//! This is the Table 3 default (`LRU-1`) and the policy both O2 and Texas
//! are parameterised with in Table 4 of the paper.

use crate::policy::{PageId, ReplacementPolicy};

/// No neighbour: the end of the list.
const NIL: u32 = u32::MAX;
/// `prev` of a page that is not on the list.
const UNLINKED: u32 = u32::MAX - 1;

/// A page's neighbours on the recency list.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

const FREE: Link = Link {
    prev: UNLINKED,
    next: NIL,
};

/// Least-recently-used replacement, O(1) per operation.
///
/// Resident pages form an intrusive doubly-linked list, least recently
/// used at the head. The links live in a table indexed by page id and
/// grown on demand, so page ids are expected to be dense (disk page
/// numbers), as everywhere in this workspace.
#[derive(Debug)]
pub struct LruPolicy {
    links: Vec<Link>,
    head: u32,
    tail: u32,
}

impl Default for LruPolicy {
    fn default() -> Self {
        LruPolicy {
            links: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl LruPolicy {
    /// Creates an empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn is_linked(&self, page: PageId) -> bool {
        self.links
            .get(page as usize)
            .is_some_and(|link| link.prev != UNLINKED)
    }

    fn unlink(&mut self, page: PageId) {
        let Link { prev, next } = self.links[page as usize];
        match prev {
            NIL => self.head = next,
            _ => self.links[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            _ => self.links[next as usize].prev = prev,
        }
        self.links[page as usize] = FREE;
    }

    /// Moves `page` to the most-recently-used end, linking it if new.
    fn touch(&mut self, page: PageId) {
        debug_assert!(
            page < UNLINKED,
            "page id {page} collides with a list marker"
        );
        if self.tail == page {
            return;
        }
        if self.is_linked(page) {
            self.unlink(page);
        } else if page as usize >= self.links.len() {
            self.links.resize(page as usize + 1, FREE);
        }
        self.links[page as usize] = Link {
            prev: self.tail,
            next: NIL,
        };
        match self.tail {
            NIL => self.head = page,
            tail => self.links[tail as usize].next = page,
        }
        self.tail = page;
    }
}

impl ReplacementPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "LRU"
    }

    fn on_admit(&mut self, page: PageId) {
        self.touch(page);
    }

    fn on_access(&mut self, page: PageId) {
        self.touch(page);
    }

    fn select_victim(&mut self) -> PageId {
        assert!(self.head != NIL, "LRU victim requested on empty pool");
        self.head
    }

    fn on_evict(&mut self, page: PageId) {
        if self.is_linked(page) {
            self.unlink(page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used() {
        let mut p = LruPolicy::new();
        p.on_admit(1);
        p.on_admit(2);
        p.on_admit(3);
        // Reference 1: now 2 is the LRU page.
        p.on_access(1);
        assert_eq!(p.select_victim(), 2);
        p.on_evict(2);
        assert_eq!(p.select_victim(), 3);
    }

    #[test]
    fn repeated_access_keeps_page_hot() {
        let mut p = LruPolicy::new();
        for page in 0..5 {
            p.on_admit(page);
        }
        for _ in 0..10 {
            p.on_access(0);
        }
        assert_eq!(p.select_victim(), 1);
    }

    #[test]
    fn evicting_the_only_page_empties_the_list() {
        let mut p = LruPolicy::new();
        p.on_admit(3);
        p.on_evict(3);
        p.on_evict(3); // not resident: no-op
        p.on_admit(5);
        assert_eq!(p.select_victim(), 5);
        p.on_evict(5);
        p.on_admit(3);
        p.on_admit(4);
        assert_eq!(p.select_victim(), 3);
    }

    #[test]
    fn eviction_removes_page_from_index() {
        let mut p = LruPolicy::new();
        p.on_admit(7);
        p.on_admit(8);
        p.on_evict(7);
        assert_eq!(p.select_victim(), 8);
    }
}
