//! Per-cgroup page cache with LRU ordering and dirty tracking.
//!
//! Pages live in a slab (`Vec` + free-list) behind one
//! [`FxHashMap`] probe from [`BlockAddr`], and every page sits on up to
//! three intrusive doubly-linked chains threaded through the slab:
//!
//! * **LRU** — all pages, least-recently-used at the head. Every
//!   operation that refreshes a page (`touch`, `insert`, `mark_dirty`)
//!   moves it to the tail, so `pop_lru` is the head.
//! * **dirty-by-age** — the dirty pages only, in the same relative order
//!   as on the LRU chain: a page joins at the tail when it turns dirty
//!   and moves to the tail whenever it is refreshed while dirty, so the
//!   first *n* of the chain are the *n* least-recently-used dirty pages
//!   (what background writeback asks for) and its length is a counter.
//! * **per-file** — the pages of one file, headed by a
//!   `FileId -> slab index` map, so fsync and delete walk one file's
//!   pages instead of the whole resident set.
//!
//! No operation is O(resident pages) except [`PageCache::iter_addrs_clean`],
//! which is asked for all of them.

use ddc_sim::FxHashMap;

use ddc_cleancache::PageVersion;
use ddc_storage::{BlockAddr, FileId};

/// State of one cached file page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PageState {
    /// Whether the page has been modified since it matched the disk.
    pub dirty: bool,
    /// Version of the content the page currently holds.
    pub version: PageVersion,
}

/// "No neighbour" / "empty chain" slab index.
const NIL: u32 = u32::MAX;

/// Indexes into [`Page::links`].
const LRU: usize = 0;
const DIRTY: usize = 1;
const FILE: usize = 2;

/// One page's position on one chain.
#[derive(Clone, Copy, Debug)]
struct Link {
    prev: u32,
    next: u32,
}

const UNLINKED: Link = Link {
    prev: NIL,
    next: NIL,
};

/// Both ends of a chain that is pushed at the tail and popped at the
/// head (the per-file chains only keep a head, in `PageCache::files`).
#[derive(Clone, Copy, Debug)]
struct Ends {
    head: u32,
    tail: u32,
}

impl Default for Ends {
    fn default() -> Ends {
        Ends {
            head: NIL,
            tail: NIL,
        }
    }
}

/// One slab entry. A page is on the dirty chain iff `state.dirty`.
#[derive(Clone, Copy, Debug)]
struct Page {
    addr: BlockAddr,
    state: PageState,
    links: [Link; 3],
}

/// Takes `idx` off `chain`, joining its neighbours, and returns the link
/// it held so the caller can repair whichever end it was.
fn detach(slab: &mut [Page], chain: usize, idx: u32) -> Link {
    let link = std::mem::replace(&mut slab[idx as usize].links[chain], UNLINKED);
    if link.prev != NIL {
        slab[link.prev as usize].links[chain].next = link.next;
    }
    if link.next != NIL {
        slab[link.next as usize].links[chain].prev = link.prev;
    }
    link
}

fn detach_ended(slab: &mut [Page], chain: usize, ends: &mut Ends, idx: u32) {
    let link = detach(slab, chain, idx);
    if link.prev == NIL {
        ends.head = link.next;
    }
    if link.next == NIL {
        ends.tail = link.prev;
    }
}

fn push_tail(slab: &mut [Page], chain: usize, ends: &mut Ends, idx: u32) {
    slab[idx as usize].links[chain] = Link {
        prev: ends.tail,
        next: NIL,
    };
    match ends.tail {
        NIL => ends.head = idx,
        tail => slab[tail as usize].links[chain].next = idx,
    }
    ends.tail = idx;
}

fn move_to_tail(slab: &mut [Page], chain: usize, ends: &mut Ends, idx: u32) {
    if ends.tail != idx {
        detach_ended(slab, chain, ends, idx);
        push_tail(slab, chain, ends, idx);
    }
}

/// A file page cache with LRU eviction order (see the module docs for
/// the layout).
///
/// # Example
///
/// ```
/// use ddc_guest::PageCache;
/// use ddc_cleancache::PageVersion;
/// use ddc_storage::{BlockAddr, FileId};
///
/// let mut pc = PageCache::new();
/// pc.insert(BlockAddr::new(FileId(1), 0), false, PageVersion(0));
/// assert_eq!(pc.len(), 1);
/// let (addr, st) = pc.pop_lru().unwrap();
/// assert_eq!(addr, BlockAddr::new(FileId(1), 0));
/// assert!(!st.dirty);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PageCache {
    /// The single-probe lookup path: block address → slab index.
    map: FxHashMap<BlockAddr, u32>,
    /// The slab; indexes on `free` hold dead pages awaiting reuse.
    slab: Vec<Page>,
    free: Vec<u32>,
    lru: Ends,
    dirty: Ends,
    dirty_len: u64,
    /// Head of each resident file's chain (no entry for an empty chain).
    files: FxHashMap<FileId, u32>,
}

impl PageCache {
    /// Creates an empty cache.
    pub fn new() -> PageCache {
        PageCache::default()
    }

    /// Number of resident pages.
    pub fn len(&self) -> u64 {
        self.map.len() as u64
    }

    /// Whether no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of dirty resident pages.
    pub fn dirty_len(&self) -> u64 {
        self.dirty_len
    }

    /// Looks up a page without touching LRU order.
    pub fn peek(&self, addr: BlockAddr) -> Option<&PageState> {
        let idx = *self.map.get(&addr)?;
        Some(&self.slab[idx as usize].state)
    }

    /// Whether the page is resident.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.map.contains_key(&addr)
    }

    /// Looks up a page and marks it most-recently-used.
    pub fn touch(&mut self, addr: BlockAddr) -> Option<PageState> {
        let idx = *self.map.get(&addr)?;
        self.refresh(idx);
        Some(self.slab[idx as usize].state)
    }

    /// Inserts (or replaces) a page as most-recently-used.
    pub fn insert(&mut self, addr: BlockAddr, dirty: bool, version: PageVersion) {
        let state = PageState { dirty, version };
        if let Some(&idx) = self.map.get(&addr) {
            self.set_dirty(idx, dirty);
            self.slab[idx as usize].state = state;
            self.refresh(idx);
            return;
        }
        let page = Page {
            addr,
            state,
            links: [UNLINKED; 3],
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slab[idx as usize] = page;
                idx
            }
            None => {
                self.slab.push(page);
                (self.slab.len() - 1) as u32
            }
        };
        self.map.insert(addr, idx);
        push_tail(&mut self.slab, LRU, &mut self.lru, idx);
        if dirty {
            push_tail(&mut self.slab, DIRTY, &mut self.dirty, idx);
            self.dirty_len += 1;
        }
        // New pages go to the head of their file's chain: the map entry
        // is being probed anyway, and only the old head is written.
        let old_head = self.files.insert(addr.file, idx).unwrap_or(NIL);
        self.slab[idx as usize].links[FILE].next = old_head;
        if old_head != NIL {
            self.slab[old_head as usize].links[FILE].prev = idx;
        }
    }

    /// Marks a resident page dirty with a new version, refreshing LRU.
    /// Returns the new version, or `None` if the page is not resident.
    pub fn mark_dirty(&mut self, addr: BlockAddr) -> Option<PageVersion> {
        let idx = *self.map.get(&addr)?;
        self.set_dirty(idx, true);
        self.refresh(idx);
        let state = &mut self.slab[idx as usize].state;
        state.version = state.version.bump();
        Some(state.version)
    }

    /// Marks a resident page clean (after writeback) without touching LRU.
    pub fn mark_clean(&mut self, addr: BlockAddr) {
        if let Some(&idx) = self.map.get(&addr) {
            self.set_dirty(idx, false);
        }
    }

    /// Removes one page by address.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<PageState> {
        let idx = self.map.remove(&addr)?;
        self.unlink_file(idx);
        Some(self.release(idx))
    }

    /// Removes and returns the least-recently-used page.
    pub fn pop_lru(&mut self) -> Option<(BlockAddr, PageState)> {
        let idx = self.lru.head;
        if idx == NIL {
            return None;
        }
        let addr = self.slab[idx as usize].addr;
        self.map.remove(&addr);
        self.unlink_file(idx);
        Some((addr, self.release(idx)))
    }

    /// Addresses of all dirty pages of `file` (for fsync), in block order.
    pub fn dirty_blocks_of(&self, file: FileId) -> Vec<BlockAddr> {
        let mut blocks: Vec<BlockAddr> = self
            .chain(FILE, self.files.get(&file).copied().unwrap_or(NIL))
            .filter(|p| p.state.dirty)
            .map(|p| p.addr)
            .collect();
        blocks.sort();
        blocks
    }

    /// Up to `max` dirty page addresses, least-recently-used first, for
    /// background writeback.
    pub fn collect_dirty(&self, max: usize) -> Vec<BlockAddr> {
        self.chain(DIRTY, self.dirty.head)
            .take(max)
            .map(|p| p.addr)
            .collect()
    }

    /// Iterates over the addresses of all *clean* resident pages.
    pub fn iter_addrs_clean(&self) -> impl Iterator<Item = BlockAddr> + '_ {
        self.map
            .iter()
            .filter(|(_, &idx)| !self.slab[idx as usize].state.dirty)
            .map(|(a, _)| *a)
    }

    /// Removes all pages of `file`, returning them (for truncate/delete).
    pub fn remove_file(&mut self, file: FileId) -> Vec<(BlockAddr, PageState)> {
        let mut removed = Vec::new();
        let mut idx = self.files.remove(&file).unwrap_or(NIL);
        while idx != NIL {
            // The whole chain dies, so its links need no repair.
            let Page { addr, links, .. } = self.slab[idx as usize];
            self.map.remove(&addr);
            removed.push((addr, self.release(idx)));
            idx = links[FILE].next;
        }
        removed
    }

    /// The pages of one chain from `head` on (`NIL` indexes no page, so
    /// it ends the walk).
    fn chain(&self, chain: usize, head: u32) -> impl Iterator<Item = &Page> + '_ {
        let mut idx = head;
        std::iter::from_fn(move || {
            let page = self.slab.get(idx as usize)?;
            idx = page.links[chain].next;
            Some(page)
        })
    }

    /// Makes `idx` most-recently-used, on the dirty chain too if it is
    /// dirty — which keeps that chain in LRU order.
    fn refresh(&mut self, idx: u32) {
        move_to_tail(&mut self.slab, LRU, &mut self.lru, idx);
        if self.slab[idx as usize].state.dirty {
            move_to_tail(&mut self.slab, DIRTY, &mut self.dirty, idx);
        }
    }

    /// Sets the dirty bit, joining or leaving the dirty chain with it.
    fn set_dirty(&mut self, idx: u32, dirty: bool) {
        let state = &mut self.slab[idx as usize].state;
        if state.dirty == dirty {
            return;
        }
        state.dirty = dirty;
        if dirty {
            push_tail(&mut self.slab, DIRTY, &mut self.dirty, idx);
            self.dirty_len += 1;
        } else {
            detach_ended(&mut self.slab, DIRTY, &mut self.dirty, idx);
            self.dirty_len -= 1;
        }
    }

    /// Takes `idx` off its file's chain; the head map is written only
    /// when the head itself leaves.
    fn unlink_file(&mut self, idx: u32) {
        let link = detach(&mut self.slab, FILE, idx);
        if link.prev == NIL {
            let file = self.slab[idx as usize].addr.file;
            if link.next == NIL {
                self.files.remove(&file);
            } else {
                self.files.insert(file, link.next);
            }
        }
    }

    /// Frees a slab entry already gone from `map` and its file chain.
    fn release(&mut self, idx: u32) -> PageState {
        detach_ended(&mut self.slab, LRU, &mut self.lru, idx);
        let state = self.slab[idx as usize].state;
        if state.dirty {
            detach_ended(&mut self.slab, DIRTY, &mut self.dirty, idx);
            self.dirty_len -= 1;
        }
        self.free.push(idx);
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    #[test]
    fn insert_touch_remove() {
        let mut pc = PageCache::new();
        pc.insert(addr(1, 0), false, PageVersion(0));
        assert!(pc.contains(addr(1, 0)));
        assert_eq!(pc.len(), 1);
        assert!(pc.touch(addr(1, 0)).is_some());
        assert!(pc.touch(addr(9, 9)).is_none());
        assert!(pc.remove(addr(1, 0)).is_some());
        assert!(pc.is_empty());
    }

    #[test]
    fn lru_order_basic() {
        let mut pc = PageCache::new();
        for b in 0..3 {
            pc.insert(addr(1, b), false, PageVersion(0));
        }
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 0));
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 1));
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 2));
        assert_eq!(pc.pop_lru(), None);
    }

    #[test]
    fn touch_refreshes_lru() {
        let mut pc = PageCache::new();
        for b in 0..3 {
            pc.insert(addr(1, b), false, PageVersion(0));
        }
        pc.touch(addr(1, 0));
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 1));
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 2));
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 0));
    }

    #[test]
    fn mark_dirty_bumps_version_and_lru() {
        let mut pc = PageCache::new();
        pc.insert(addr(1, 0), false, PageVersion(0));
        pc.insert(addr(1, 1), false, PageVersion(0));
        let v = pc.mark_dirty(addr(1, 0)).unwrap();
        assert_eq!(v, PageVersion(1));
        assert_eq!(pc.dirty_len(), 1);
        // Dirtied page became MRU.
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 1));
        let (a, st) = pc.pop_lru().unwrap();
        assert_eq!(a, addr(1, 0));
        assert!(st.dirty);
        assert_eq!(st.version, PageVersion(1));
        assert_eq!(pc.mark_dirty(addr(9, 9)), None);
    }

    #[test]
    fn mark_clean_clears_dirty_bit() {
        let mut pc = PageCache::new();
        pc.insert(addr(1, 0), true, PageVersion(2));
        pc.mark_clean(addr(1, 0));
        assert!(!pc.peek(addr(1, 0)).unwrap().dirty);
        assert_eq!(pc.peek(addr(1, 0)).unwrap().version, PageVersion(2));
        pc.mark_clean(addr(7, 7)); // no-op
    }

    #[test]
    fn dirty_blocks_of_sorted() {
        let mut pc = PageCache::new();
        pc.insert(addr(1, 5), true, PageVersion(1));
        pc.insert(addr(1, 2), true, PageVersion(1));
        pc.insert(addr(1, 3), false, PageVersion(0));
        pc.insert(addr(2, 0), true, PageVersion(1));
        assert_eq!(pc.dirty_blocks_of(FileId(1)), vec![addr(1, 2), addr(1, 5)]);
    }

    #[test]
    fn remove_file_takes_all_pages() {
        let mut pc = PageCache::new();
        pc.insert(addr(1, 0), false, PageVersion(0));
        pc.insert(addr(1, 1), true, PageVersion(1));
        pc.insert(addr(2, 0), false, PageVersion(0));
        let removed = pc.remove_file(FileId(1));
        assert_eq!(removed.len(), 2);
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn dirty_len_follows_every_transition() {
        let mut pc = PageCache::new();
        pc.insert(addr(1, 0), true, PageVersion(1));
        pc.insert(addr(1, 1), false, PageVersion(0));
        assert_eq!(pc.dirty_len(), 1);
        pc.mark_dirty(addr(1, 1));
        pc.mark_dirty(addr(1, 1)); // already dirty: counted once
        assert_eq!(pc.dirty_len(), 2);
        pc.insert(addr(1, 0), false, PageVersion(2)); // re-insert clean over dirty
        assert_eq!(pc.dirty_len(), 1);
        pc.mark_clean(addr(1, 0)); // already clean
        assert_eq!(pc.dirty_len(), 1);
        pc.insert(addr(2, 0), true, PageVersion(1));
        pc.remove(addr(1, 1));
        assert_eq!(pc.dirty_len(), 1);
        pc.remove_file(FileId(2));
        assert_eq!(pc.dirty_len(), 0);
        assert_eq!(pc.collect_dirty(8), vec![]);
    }

    #[test]
    fn collect_dirty_is_oldest_first_by_last_refresh() {
        let mut pc = PageCache::new();
        for b in 0..4 {
            pc.insert(addr(1, b), true, PageVersion(1));
        }
        pc.insert(addr(1, 9), false, PageVersion(0));
        pc.touch(addr(1, 0)); // a touched dirty page is young again
        pc.mark_clean(addr(1, 2));
        pc.mark_dirty(addr(1, 9)); // a page that turns dirty joins as youngest
        assert_eq!(
            pc.collect_dirty(8),
            vec![addr(1, 1), addr(1, 3), addr(1, 0), addr(1, 9)]
        );
        assert_eq!(pc.collect_dirty(2), vec![addr(1, 1), addr(1, 3)]);
        // pop_lru takes the dirty chain's head along.
        assert_eq!(pc.pop_lru().unwrap().0, addr(1, 1));
        assert_eq!(pc.collect_dirty(1), vec![addr(1, 3)]);
    }

    #[test]
    fn file_chains_survive_slab_reuse() {
        let mut pc = PageCache::new();
        for b in 0..4 {
            pc.insert(addr(1, b), true, PageVersion(1));
            pc.insert(addr(2, b), true, PageVersion(1));
        }
        // Free the head, a middle page and the tail of file 1's chain,
        // then let file 3 reuse their slab cells.
        pc.remove(addr(1, 3));
        pc.remove(addr(1, 1));
        pc.remove(addr(1, 0));
        for b in 0..3 {
            pc.insert(addr(3, b), true, PageVersion(1));
        }
        assert_eq!(pc.dirty_blocks_of(FileId(1)), vec![addr(1, 2)]);
        assert_eq!(pc.dirty_blocks_of(FileId(3)).len(), 3);
        assert_eq!(pc.remove_file(FileId(1)).len(), 1);
        assert_eq!(pc.remove_file(FileId(1)), vec![]);
        assert_eq!(pc.remove_file(FileId(3)).len(), 3);
        assert_eq!(pc.len(), 4);
        assert_eq!(pc.dirty_blocks_of(FileId(2)).len(), 4);
    }

    #[test]
    fn reinsert_replaces_state() {
        let mut pc = PageCache::new();
        pc.insert(addr(1, 0), false, PageVersion(0));
        pc.insert(addr(1, 0), true, PageVersion(5));
        assert_eq!(pc.len(), 1);
        let st = pc.peek(addr(1, 0)).unwrap();
        assert!(st.dirty);
        assert_eq!(st.version, PageVersion(5));
    }

    #[test]
    fn touch_churn_keeps_every_page_once() {
        let mut pc = PageCache::new();
        // Touch a small set many times: the chains must not grow or drop.
        for b in 0..8 {
            pc.insert(addr(1, b), false, PageVersion(0));
        }
        for round in 0..2000u64 {
            pc.touch(addr(1, round % 8));
        }
        assert_eq!(pc.len(), 8);
        let mut popped = Vec::new();
        while let Some((a, _)) = pc.pop_lru() {
            popped.push(a);
        }
        assert_eq!(popped.len(), 8);
    }

    /// Seeded randomized schedules (in-tree replacement for proptest,
    /// which is unavailable offline).
    mod randomized {
        use super::*;
        use ddc_sim::SimRng;

        /// `len()` always equals the number of live pages, and pop_lru
        /// drains exactly the resident set.
        #[test]
        fn len_matches_drain() {
            let mut rng = SimRng::new(0xBCAC4E);
            for case in 0..200 {
                let mut r = rng.fork(case);
                let mut pc = PageCache::new();
                let mut model = std::collections::HashSet::new();
                for _ in 0..r.range_u64(0, 300) {
                    let a = addr(1, r.range_u64(0, 32));
                    match r.range_u64(0, 3) {
                        0 => {
                            pc.insert(a, false, PageVersion(0));
                            model.insert(a);
                        }
                        1 => {
                            pc.remove(a);
                            model.remove(&a);
                        }
                        _ => {
                            pc.touch(a);
                        }
                    }
                    assert_eq!(pc.len(), model.len() as u64);
                }
                let mut drained = 0;
                while pc.pop_lru().is_some() {
                    drained += 1;
                }
                assert_eq!(drained, model.len());
            }
        }

        /// LRU pops come out in non-decreasing last-touch order.
        #[test]
        fn pop_order_respects_touches() {
            let mut rng = SimRng::new(0xBCAC4F);
            for case in 0..200 {
                let mut r = rng.fork(case);
                let mut pc = PageCache::new();
                let mut last_touch: FxHashMap<BlockAddr, usize> = FxHashMap::default();
                for i in 0..r.range_usize(1, 100) {
                    let a = addr(1, r.range_u64(0, 16));
                    if pc.contains(a) {
                        pc.touch(a);
                    } else {
                        pc.insert(a, false, PageVersion(0));
                    }
                    last_touch.insert(a, i);
                }
                let mut prev = None;
                while let Some((a, _)) = pc.pop_lru() {
                    let t = last_touch[&a];
                    if let Some(p) = prev {
                        assert!(t > p, "pop order must follow last-touch order");
                    }
                    prev = Some(t);
                }
            }
        }
    }
}
