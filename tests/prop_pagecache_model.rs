//! Property test for the guest page cache's slab + intrusive chains.
//!
//! `ddc_guest::PageCache` answers every per-file and per-dirty question
//! from an index (LRU, dirty-by-age and per-file chains). The reference
//! here is the implementation it replaced: one map of pages stamped with
//! an LRU sequence number, where every such question is a scan of the
//! whole resident set. Both run the same seeded schedules and must agree
//! on everything a caller can observe after every step — including the
//! *order* of `collect_dirty`, `dirty_blocks_of` and a full `pop_lru`
//! drain, which is what keeps the simulator's reports byte-identical.
//! (Seeded SimRng schedules — the in-tree replacement for proptest.)

use std::collections::BTreeMap;

use ddc_core::guest::{PageCache, PageState};
use ddc_core::prelude::*;

/// What the scanning reference remembers per resident page.
#[derive(Clone, Copy, Debug)]
struct RefPage {
    dirty: bool,
    version: PageVersion,
    lru_seq: u64,
}

/// The scanning page cache: every refresh takes a fresh stamp, and
/// order is recovered by sorting on it.
#[derive(Clone, Debug, Default)]
struct ScanningPageCache {
    pages: BTreeMap<BlockAddr, RefPage>,
    next_seq: u64,
}

impl ScanningPageCache {
    fn alloc_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    fn len(&self) -> u64 {
        self.pages.len() as u64
    }

    fn dirty_len(&self) -> u64 {
        self.pages.values().filter(|p| p.dirty).count() as u64
    }

    fn peek(&self, addr: BlockAddr) -> Option<PageState> {
        self.pages.get(&addr).map(|p| PageState {
            dirty: p.dirty,
            version: p.version,
        })
    }

    fn touch(&mut self, addr: BlockAddr) -> Option<PageState> {
        let seq = self.alloc_seq();
        self.pages.get_mut(&addr)?.lru_seq = seq;
        self.peek(addr)
    }

    fn insert(&mut self, addr: BlockAddr, dirty: bool, version: PageVersion) {
        let lru_seq = self.alloc_seq();
        self.pages.insert(
            addr,
            RefPage {
                dirty,
                version,
                lru_seq,
            },
        );
    }

    fn mark_dirty(&mut self, addr: BlockAddr) -> Option<PageVersion> {
        let seq = self.alloc_seq();
        let page = self.pages.get_mut(&addr)?;
        page.dirty = true;
        page.version = page.version.bump();
        page.lru_seq = seq;
        Some(page.version)
    }

    fn mark_clean(&mut self, addr: BlockAddr) {
        if let Some(page) = self.pages.get_mut(&addr) {
            page.dirty = false;
        }
    }

    fn remove(&mut self, addr: BlockAddr) -> Option<PageState> {
        let state = self.peek(addr);
        self.pages.remove(&addr);
        state
    }

    /// The live page with the smallest stamp.
    fn pop_lru(&mut self) -> Option<(BlockAddr, PageState)> {
        let addr = *self.pages.iter().min_by_key(|(_, p)| p.lru_seq)?.0;
        self.remove(addr).map(|s| (addr, s))
    }

    fn dirty_blocks_of(&self, file: FileId) -> Vec<BlockAddr> {
        // A BTreeMap iterates in address order, i.e. block order per file.
        self.pages
            .iter()
            .filter(|(a, p)| a.file == file && p.dirty)
            .map(|(a, _)| *a)
            .collect()
    }

    fn collect_dirty(&self, max: usize) -> Vec<BlockAddr> {
        let mut dirty: Vec<(u64, BlockAddr)> = self
            .pages
            .iter()
            .filter(|(_, p)| p.dirty)
            .map(|(a, p)| (p.lru_seq, *a))
            .collect();
        dirty.sort_unstable();
        dirty.into_iter().take(max).map(|(_, a)| a).collect()
    }

    fn clean_addrs(&self) -> Vec<BlockAddr> {
        self.pages
            .iter()
            .filter(|(_, p)| !p.dirty)
            .map(|(a, _)| *a)
            .collect()
    }

    fn remove_file(&mut self, file: FileId) -> Vec<(BlockAddr, PageState)> {
        let addrs: Vec<BlockAddr> = self
            .pages
            .keys()
            .filter(|a| a.file == file)
            .copied()
            .collect();
        addrs
            .into_iter()
            .filter_map(|a| self.remove(a).map(|s| (a, s)))
            .collect()
    }
}

const FILES: u64 = 5;
const BLOCKS: u64 = 24;

fn random_addr(r: &mut SimRng) -> BlockAddr {
    BlockAddr::new(FileId(r.range_u64(1, FILES + 1)), r.range_u64(0, BLOCKS))
}

fn sorted<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort();
    v
}

fn by_addr(v: Vec<(BlockAddr, PageState)>) -> Vec<(BlockAddr, bool, PageVersion)> {
    sorted(
        v.into_iter()
            .map(|(a, s)| (a, s.dirty, s.version))
            .collect(),
    )
}

/// Everything a caller can read without changing the cache, plus a full
/// drain of a clone (the LRU order).
fn check_against_reference(pc: &PageCache, reference: &ScanningPageCache, step: &str) {
    assert_eq!(pc.len(), reference.len(), "{step}: len");
    assert_eq!(pc.is_empty(), reference.len() == 0, "{step}: is_empty");
    assert_eq!(pc.dirty_len(), reference.dirty_len(), "{step}: dirty_len");
    for file in 0..=FILES + 1 {
        assert_eq!(
            pc.dirty_blocks_of(FileId(file)),
            reference.dirty_blocks_of(FileId(file)),
            "{step}: dirty_blocks_of({file})"
        );
        for block in 0..BLOCKS {
            let addr = BlockAddr::new(FileId(file), block);
            assert_eq!(pc.peek(addr).copied(), reference.peek(addr), "{step}: peek");
            assert_eq!(pc.contains(addr), reference.peek(addr).is_some());
        }
    }
    for max in [0, 1, 7, usize::MAX] {
        assert_eq!(
            pc.collect_dirty(max),
            reference.collect_dirty(max),
            "{step}: collect_dirty({max})"
        );
    }
    assert_eq!(
        sorted(pc.iter_addrs_clean().collect()),
        reference.clean_addrs(),
        "{step}: clean set"
    );
    let (mut pc, mut reference) = (pc.clone(), reference.clone());
    loop {
        let (got, expected) = (pc.pop_lru(), reference.pop_lru());
        assert_eq!(got, expected, "{step}: pop_lru drain order");
        if got.is_none() {
            break;
        }
    }
    assert!(pc.is_empty() && pc.dirty_len() == 0 && pc.collect_dirty(1).is_empty());
}

#[test]
fn page_cache_matches_the_scanning_reference_under_random_schedules() {
    let mut rng = SimRng::new(0x9A6E_CAC4);
    for case in 0..96 {
        let mut r = rng.fork(case);
        let mut pc = PageCache::new();
        let mut reference = ScanningPageCache::default();
        for i in 0..r.range_u64(1, 250) {
            let addr = random_addr(&mut r);
            let step = match r.range_u64(0, 16) {
                // Insert: new page, or re-insert over a resident (possibly
                // dirty) one with either dirtiness.
                0..=4 => {
                    let dirty = r.chance(0.4);
                    let version = PageVersion(r.range_u64(0, 9));
                    pc.insert(addr, dirty, version);
                    reference.insert(addr, dirty, version);
                    "insert"
                }
                5..=6 => {
                    assert_eq!(pc.touch(addr), reference.touch(addr), "touch");
                    "touch"
                }
                7..=9 => {
                    assert_eq!(pc.mark_dirty(addr), reference.mark_dirty(addr));
                    "mark_dirty"
                }
                10..=11 => {
                    pc.mark_clean(addr);
                    reference.mark_clean(addr);
                    "mark_clean"
                }
                12..=13 => {
                    assert_eq!(pc.remove(addr), reference.remove(addr), "remove");
                    "remove"
                }
                14 => {
                    assert_eq!(pc.pop_lru(), reference.pop_lru(), "pop_lru");
                    "pop_lru"
                }
                // The order pages of a deleted file come back in is not
                // part of the contract (nothing downstream keeps it).
                _ => {
                    assert_eq!(
                        by_addr(pc.remove_file(addr.file)),
                        by_addr(reference.remove_file(addr.file)),
                        "remove_file"
                    );
                    "remove_file"
                }
            };
            check_against_reference(&pc, &reference, &format!("case {case} op {i} ({step})"));
        }
    }
}

/// The guest's write path in miniature: a cgroup at its page limit,
/// writes that dirty pages, background writeback of the oldest dirty
/// chunk, fsync of one file and deletes — long enough that every slab
/// cell is recycled many times.
#[test]
fn page_cache_matches_the_reference_through_a_write_fsync_delete_loop() {
    const LIMIT: u64 = 48;
    let mut r = SimRng::new(0xF5_1C);
    let mut pc = PageCache::new();
    let mut reference = ScanningPageCache::default();
    for i in 0..6_000u64 {
        let addr = random_addr(&mut r);
        if pc.contains(addr) {
            assert_eq!(pc.mark_dirty(addr), reference.mark_dirty(addr));
        } else {
            if pc.len() >= LIMIT {
                let popped = pc.pop_lru();
                assert_eq!(popped, reference.pop_lru());
                if let Some((victim, state)) = popped {
                    if state.dirty {
                        for sib in pc.dirty_blocks_of(victim.file) {
                            pc.mark_clean(sib);
                            reference.mark_clean(sib);
                        }
                    }
                }
            }
            pc.insert(addr, true, PageVersion(i));
            reference.insert(addr, true, PageVersion(i));
        }
        if pc.dirty_len() > 16 {
            let victims = pc.collect_dirty(8);
            assert_eq!(victims, reference.collect_dirty(8));
            for v in victims {
                pc.mark_clean(v);
                reference.mark_clean(v);
            }
        }
        if i % 32 == 31 {
            let blocks = pc.dirty_blocks_of(addr.file);
            assert_eq!(blocks, reference.dirty_blocks_of(addr.file));
            for b in blocks {
                pc.mark_clean(b);
                reference.mark_clean(b);
            }
        }
        if i % 64 == 63 {
            assert_eq!(
                by_addr(pc.remove_file(addr.file)),
                by_addr(reference.remove_file(addr.file))
            );
        }
        if i % 97 == 0 {
            check_against_reference(&pc, &reference, &format!("loop op {i}"));
        }
    }
    check_against_reference(&pc, &reference, "end of loop");
}
