//! Anonymous (non-file-backed) memory with swap.
//!
//! Anonymous pages are the memory hypervisor caches cannot absorb: when a
//! cgroup is squeezed below its anonymous working set, the guest must swap
//! — the effect behind the Redis/MySQL rows of the paper's Table 1 and
//! Table 4.

use ddc_sim::FxHashMap;
use std::collections::VecDeque;

/// One cgroup's anonymous memory: `allocated` virtual pages of which some
/// are resident and the rest are swapped out. Resident pages age in LRU
/// order (lazy-deletion queue).
#[derive(Clone, Debug, Default)]
pub struct AnonSpace {
    allocated: u64,
    resident: FxHashMap<u64, u64>, // page index -> lru seq
    lru: VecDeque<(u64, u64)>,
    next_seq: u64,
    swapped_out_total: u64,
    swapped_in_total: u64,
    ever_touched: Vec<u64>, // bitmap, one bit per allocated page
}

impl AnonSpace {
    /// Creates an empty space.
    pub fn new() -> AnonSpace {
        AnonSpace::default()
    }

    /// Total allocated anonymous pages (resident + swapped).
    pub fn allocated(&self) -> u64 {
        self.allocated
    }

    /// Currently resident pages.
    pub fn resident(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Currently swapped-out pages.
    pub fn swapped(&self) -> u64 {
        self.allocated - self.resident()
    }

    /// Cumulative pages swapped out.
    pub fn swap_outs(&self) -> u64 {
        self.swapped_out_total
    }

    /// Cumulative pages swapped in (major faults).
    pub fn swap_ins(&self) -> u64 {
        self.swapped_in_total
    }

    /// Grows the allocation by `pages`. New pages are *not* resident until
    /// first touched (so the caller charges faults naturally).
    pub fn grow(&mut self, pages: u64) {
        self.allocated += pages;
        let words = (self.allocated as usize).div_ceil(64);
        if self.ever_touched.len() < words {
            self.ever_touched.resize(words, 0);
        }
    }

    /// Whether the page has ever been touched (distinguishes a swapped-out
    /// page from a never-populated one).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the allocation.
    pub fn was_ever_touched(&self, page: u64) -> bool {
        assert!(page < self.allocated, "anon page {page} out of range");
        self.ever_touched[(page / 64) as usize] & (1 << (page % 64)) != 0
    }

    /// Shrinks the allocation (frees the highest-numbered pages).
    pub fn shrink(&mut self, pages: u64) {
        let target = self.allocated.saturating_sub(pages);
        for idx in target..self.allocated {
            self.resident.remove(&idx);
            self.ever_touched[(idx / 64) as usize] &= !(1 << (idx % 64));
        }
        self.allocated = target;
    }

    /// Whether a page is resident.
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the allocation.
    pub fn is_resident(&self, page: u64) -> bool {
        assert!(page < self.allocated, "anon page {page} out of range");
        self.resident.contains_key(&page)
    }

    /// Touches a page, making it MRU. Returns `true` if the touch was a
    /// fault (the page was not resident and has been made resident —
    /// either first touch or swap-in; the caller charges the IO).
    ///
    /// # Panics
    ///
    /// Panics if `page` is outside the allocation.
    pub fn touch(&mut self, page: u64) -> bool {
        assert!(page < self.allocated, "anon page {page} out of range");
        self.ever_touched[(page / 64) as usize] |= 1 << (page % 64);
        let seq = self.next_seq;
        self.next_seq += 1;
        let fault = match self.resident.get_mut(&page) {
            Some(s) => {
                *s = seq;
                false
            }
            None => {
                self.resident.insert(page, seq);
                true
            }
        };
        self.lru.push_back((page, seq));
        self.maybe_compact();
        fault
    }

    /// Records that a fault was a swap-in (as opposed to first touch).
    pub fn note_swap_in(&mut self) {
        self.swapped_in_total += 1;
    }

    /// Evicts the least-recently-used resident page to swap, returning its
    /// index, or `None` if nothing is resident.
    pub fn swap_out_lru(&mut self) -> Option<u64> {
        loop {
            let (page, seq) = self.lru.pop_front()?;
            if self.resident.get(&page) == Some(&seq) {
                self.resident.remove(&page);
                self.swapped_out_total += 1;
                return Some(page);
            }
        }
    }

    fn maybe_compact(&mut self) {
        if self.lru.len() > self.resident.len().saturating_mul(4).max(1024) {
            let resident = &self.resident;
            self.lru.retain(|(p, s)| resident.get(p) == Some(s));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grow_touch_fault_cycle() {
        let mut a = AnonSpace::new();
        a.grow(4);
        assert_eq!(a.allocated(), 4);
        assert_eq!(a.resident(), 0);
        assert!(a.touch(0), "first touch faults");
        assert!(!a.touch(0), "second touch does not");
        assert_eq!(a.resident(), 1);
        assert_eq!(a.swapped(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn touch_out_of_range_panics() {
        let mut a = AnonSpace::new();
        a.grow(1);
        a.touch(1);
    }

    #[test]
    fn swap_out_lru_order() {
        let mut a = AnonSpace::new();
        a.grow(3);
        a.touch(0);
        a.touch(1);
        a.touch(2);
        a.touch(0); // 0 becomes MRU
        assert_eq!(a.swap_out_lru(), Some(1));
        assert_eq!(a.swap_out_lru(), Some(2));
        assert_eq!(a.swap_out_lru(), Some(0));
        assert_eq!(a.swap_out_lru(), None);
        assert_eq!(a.swap_outs(), 3);
    }

    #[test]
    fn swapped_page_faults_again() {
        let mut a = AnonSpace::new();
        a.grow(1);
        a.touch(0);
        a.swap_out_lru();
        assert!(!a.is_resident(0));
        assert!(a.touch(0), "swapped page faults on touch");
        a.note_swap_in();
        assert_eq!(a.swap_ins(), 1);
    }

    #[test]
    fn ever_touched_tracks_history() {
        let mut a = AnonSpace::new();
        a.grow(3);
        assert!(!a.was_ever_touched(0));
        a.touch(0);
        assert!(a.was_ever_touched(0));
        a.swap_out_lru();
        assert!(a.was_ever_touched(0), "swap-out does not erase history");
        a.shrink(3);
        a.grow(3);
        assert!(!a.was_ever_touched(0), "shrink clears history");
    }

    #[test]
    fn shrink_frees_tail_pages() {
        let mut a = AnonSpace::new();
        a.grow(10);
        for p in 0..10 {
            a.touch(p);
        }
        a.shrink(4);
        assert_eq!(a.allocated(), 6);
        assert_eq!(a.resident(), 6);
        a.shrink(100);
        assert_eq!(a.allocated(), 0);
        assert_eq!(a.resident(), 0);
    }

    #[test]
    fn compaction_under_heavy_touching() {
        let mut a = AnonSpace::new();
        a.grow(8);
        for i in 0..5000u64 {
            a.touch(i % 8);
        }
        assert_eq!(a.resident(), 8);
        // All pages still swap-out-able exactly once.
        let mut n = 0;
        while a.swap_out_lru().is_some() {
            n += 1;
        }
        assert_eq!(n, 8);
    }

    /// Seeded randomized schedules (in-tree replacement for proptest,
    /// which is unavailable offline).
    mod randomized {
        use super::*;
        use ddc_sim::SimRng;

        /// resident + swapped == allocated at all times.
        #[test]
        fn residency_partition() {
            let mut rng = SimRng::new(0xA404);
            for case in 0..200 {
                let mut r = rng.fork(case);
                let mut a = AnonSpace::new();
                a.grow(16);
                for _ in 0..r.range_u64(0, 300) {
                    if r.chance(0.5) {
                        a.touch(r.range_u64(0, 16));
                    } else {
                        a.swap_out_lru();
                    }
                    assert_eq!(a.resident() + a.swapped(), a.allocated());
                    assert!(a.resident() <= 16);
                }
            }
        }
    }
}
