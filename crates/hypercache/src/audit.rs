//! Runtime invariant auditor for the hypervisor cache.
//!
//! Cross-checks the cache's layered state — store accounting, per-pool
//! indexes, FIFO queues, entitlement shares — and returns structured
//! findings instead of panicking, so harnesses can run it on demand and
//! after crash recovery ([`crate::DoubleDeckerCache::recover`]) without
//! bringing the host down. An empty result means every audited invariant
//! holds.
//!
//! Every invariant but the 7th is one check for both engines
//! ([`audit_cut`], over a consistent [`Cut`] of either); the sharded
//! engine's auditor adds what only its layout has. Audited invariants:
//!
//! 1. **Store accounting** — each store's used-page counter equals the
//!    sum of its pools' per-placement usage over every shard and never
//!    exceeds the store's capacity.
//! 2. **Index coherence** — each pool's per-placement usage counters
//!    equal the number of live slots with that placement.
//! 3. **FIFO coverage** — each store's queue, a chain through the slab,
//!    holds every live slot of that store once and nothing else (no free
//!    or foreign slot, back links mirroring the walk, ending at its
//!    youngest end, as long as the store's usage): a slot on no queue
//!    could never be evicted, one on it twice would be evicted twice.
//! 4. **FIFO order** — stamps rise strictly along each queue, so its
//!    oldest end, and Global mode's merge of those, is FIFO order.
//! 5. **Entitlement consistency** — per store, VM entitlements sum to at
//!    most the store capacity, and each VM's pool entitlements sum to at
//!    most the VM's entitlement (weights are normalized shares, paper
//!    §4.2, so the sums can never exceed the level above), over a fresh
//!    share table. **Registry** (`registry-policy`) — the registry's
//!    `(vm, pool)` set is the set of pools that exist, and each row
//!    carries its pool's policy and shares its pool's usage cell: the
//!    weights and the victim walk read the rows, placement and
//!    accounting the pools. **Shares** (`registry-shares`) — the weight
//!    tables the registry keeps are the ones its rows give, and every
//!    pool's entitlement read from them is the fresh share table's.
//! 6. **Exclusive cache** — no block address is cached by two pools of
//!    the same VM (each guest file belongs to one container; duplicates
//!    would mean a migrate/put path leaked a copy).
//! 7. **Quarantine emptiness** — a quarantined SSD tier holds no pages
//!    anywhere (store counter and pools).
//! 8. **Sequence monotonicity** — the next-sequence allocator is above
//!    every live slot's stamp (a stale allocator would break FIFO
//!    order).
//! 9. **Arena shape** — each pool's slab arena partitions cleanly: the
//!    free-list is duplicate-free and disjoint from the live set, every
//!    arena index is either live or free, and the address map agrees
//!    with the slab (each live slot's address looks up to its own
//!    `SlotId`). A violation means the free-list could hand out a live
//!    id — the slab equivalent of a use-after-free. The per-file chains
//!    partition the live set too: every occupied slot sits on exactly
//!    one chain, that chain is the one the head map names for the slot's
//!    file, back links mirror forward links, and no chain reaches a free
//!    slot (a dangling link would make `flush_file` free a stranger, a
//!    slot on no chain would survive its file's deletion).
//! 10. **Remote consistency** — each remote binding's fault-tolerance
//!     stack is internally coherent: every fetch is accounted for by
//!     exactly one outcome (served, failed, shed or breaker-skipped),
//!     the breaker's own trip/recovery history matches the binding's
//!     counters, in-flight slots never exceed the configured cap, and no
//!     page the guest invalidated survives in the readahead buffer (the
//!     no-stale-data-during-partition guarantee).

use std::sync::Arc;

use ddc_cleancache::{PoolId, VmId};
use ddc_storage::RemoteBinding;

use crate::index::{Placement, Pool, SlotId};
use crate::registry::Registry;
use crate::shard::Cut;
use crate::DoubleDeckerCache;

/// One violated invariant, as structured data (never a panic).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditFinding {
    /// Short stable name of the violated invariant (e.g.
    /// `"store-accounting"`); harnesses group findings by it.
    pub invariant: &'static str,
    /// Human-readable specifics: which entity, expected vs actual.
    pub detail: String,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Audits every cross-layer invariant of `cache`, returning one finding
/// per violation (empty = healthy). Read-only and side-effect free, so
/// it can run at any point of a simulation.
pub fn audit(cache: &DoubleDeckerCache) -> Vec<AuditFinding> {
    let stores = Placement::ALL.map(|placement| {
        let store = cache.stores.of(placement);
        (store.used_pages(), store.capacity_pages())
    });
    let mut findings = audit_cut(&cache.registry, &cache.cut(), stores, cache.stores.next_seq);
    quarantine_emptiness(cache, &mut findings);
    findings
}

/// The invariants both engines hold, checked once over a consistent
/// [`Cut`] of either (every shard held still): store accounting against
/// `stores` — `(used, capacity)` of `[mem, ssd]` — entitlement sums over
/// a fresh share table, the registry's rows against the pools,
/// remote-binding consistency, and the pool slice under the engine's
/// next stamp `next_seq`.
pub fn audit_cut(
    registry: &Registry,
    cut: &Cut<'_>,
    stores: [(u64, u64); 2],
    next_seq: u64,
) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    let mut finding = |invariant, detail| findings.push(AuditFinding { invariant, detail });
    let shards = &cut.shards;
    for placement in Placement::ALL {
        let (name, (used, capacity)) = (placement.name(), stores[placement.idx()]);
        let pools = shards.iter().flat_map(|s| s.pools.values());
        let pooled: u64 = pools.map(|p| p.used(placement)).sum();
        if used != pooled {
            let detail = format!("{name} store counts {used} used pages but pools hold {pooled}");
            finding("store-accounting", detail);
        }
        if used > capacity {
            let detail = format!("{name} store uses {used} pages over its capacity of {capacity}");
            finding("store-accounting", detail);
        }
        let table = registry.share_table(capacity, placement);
        let vm_sum: u64 = table.rows().map(|r| r.1).sum();
        if vm_sum > capacity {
            let detail = format!(
                "{name} store: VM entitlements sum to {vm_sum}, over the capacity of \
                 {capacity} pages"
            );
            finding("entitlement-sums", detail);
        }
        for (vm, vm_share, pools) in table.rows() {
            let pool_sum: u64 = pools.iter().map(|r| r.1).sum();
            if pool_sum > vm_share {
                let detail = format!(
                    "{name} store: {vm} pool entitlements sum to {pool_sum}, over the VM's \
                     entitlement of {vm_share}"
                );
                finding("entitlement-sums", detail);
            }
        }
        if !registry.weights_current(placement) {
            let detail = format!("{name} store: the kept weights are not the registry rows'");
            finding("registry-shares", detail);
        }
        for (vm, pool) in registry.pool_ids() {
            let kept = registry.entitlement(vm, pool, placement, capacity);
            let fresh = table.pool_entitlement(vm, pool);
            if kept != fresh {
                let detail = format!(
                    "{name} store: {vm} {pool} is entitled to {kept} pages, {fresh} by a fresh \
                     share table"
                );
                finding("registry-shares", detail);
            }
        }
    }
    let pools = shards.iter().flat_map(|s| s.pools.iter());
    let mut pools: Vec<_> = pools.map(|(&(vm, pid), p)| (vm, pid, p)).collect();
    pools.sort_unstable_by_key(|&(vm, pid, _)| (vm, pid));
    findings.extend(audit_registry_policies(registry, &pools));
    let bindings = shards.iter().flat_map(|s| s.remote_bindings.iter());
    let mut bindings: Vec<_> = bindings.map(|(&(vm, pid), b)| (vm, pid, b)).collect();
    bindings.sort_unstable_by_key(|&(vm, pid, _)| (vm, pid));
    findings.extend(audit_remote_bindings(&bindings));
    let pools: Vec<_> = cut
        .pools
        .iter()
        .map(|&(vm, pid, _, p)| (vm, pid, p))
        .collect();
    findings.extend(audit_pool_slice(&pools, next_seq));
    findings
}

/// Invariant 10 over every remote binding, sorted by pool.
fn audit_remote_bindings(bindings: &[(VmId, PoolId, &RemoteBinding)]) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    for &(vm, pid, b) in bindings {
        let c = b.counters();
        let accounted = c.served + c.failed + c.shed + c.breaker_skipped;
        if accounted != c.fetches {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: {} fetches but {accounted} outcomes \
                     ({} served + {} failed + {} shed + {} breaker-skipped)",
                    c.fetches, c.served, c.failed, c.shed, c.breaker_skipped
                ),
            });
        }
        if c.edge_hits + c.origin_fetches != c.served {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: {} served splits into {} edge + {} origin",
                    c.served, c.edge_hits, c.origin_fetches
                ),
            });
        }
        if c.hedge_wins > c.hedges {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: {} hedge wins out of {} hedges launched",
                    c.hedge_wins, c.hedges
                ),
            });
        }
        if c.timeouts > c.failed {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: {} timeouts exceed {} failed fetches",
                    c.timeouts, c.failed
                ),
            });
        }
        if c.breaker_trips != b.breaker().trips()
            || c.breaker_recoveries != b.breaker().recoveries()
        {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: binding counted {}/{} breaker trips/recoveries but \
                     the breaker itself counted {}/{}",
                    c.breaker_trips,
                    c.breaker_recoveries,
                    b.breaker().trips(),
                    b.breaker().recoveries()
                ),
            });
        }
        if c.breaker_recoveries > c.breaker_trips {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: {} breaker recoveries exceed {} trips",
                    c.breaker_recoveries, c.breaker_trips
                ),
            });
        }
        if b.breaker().is_open() && c.breaker_trips == 0 {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!("{vm} {pid}: breaker is open but no trip was counted"),
            });
        }
        if b.inflight_len() > b.fetch_config().inflight_cap {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: {} in-flight slots exceed the cap of {}",
                    b.inflight_len(),
                    b.fetch_config().inflight_cap
                ),
            });
        }
        let overlap = b.buffered_localized_overlap();
        if overlap > 0 {
            findings.push(AuditFinding {
                invariant: "remote-consistency",
                detail: format!(
                    "{vm} {pid}: {overlap} guest-invalidated pages remain staged in \
                     the readahead buffer (stale data could be served)"
                ),
            });
        }
    }
    findings
}

/// Audits the pool-local invariant families — index coherence (2), FIFO
/// coverage (3) and order (4), the exclusive-cache property (6),
/// sequence monotonicity (8) and the arena (9) — over an arbitrary
/// collection of pools, below the sequence allocator's watermark
/// `next_seq`.
pub fn audit_pool_slice(pools: &[(VmId, PoolId, &Pool)], next_seq: u64) -> Vec<AuditFinding> {
    let mut findings = Vec::new();
    for &(vm, pid, pool) in pools {
        for placement in Placement::ALL {
            let live = pool
                .iter()
                .filter(|(_, s)| s.placement == placement)
                .count();
            if pool.used(placement) != live as u64 {
                findings.push(AuditFinding {
                    invariant: "index-coherence",
                    detail: format!(
                        "{vm} {pid} counts {} pages in {placement:?} but indexes {live}",
                        pool.used(placement),
                    ),
                });
            }
        }
        queue_chains(vm, pid, pool, &mut findings);
        arena_shape(vm, pid, pool, &mut findings);
        wear_ledger(vm, pid, pool, &mut findings);
        for (addr, slot) in pool.iter() {
            if slot.seq >= next_seq {
                findings.push(AuditFinding {
                    invariant: "seq-monotone",
                    detail: format!(
                        "{vm} {pid}: slot {addr:?} carries seq {} at or above the \
                         allocator's next_seq {next_seq}",
                        slot.seq
                    ),
                });
            }
        }
    }
    exclusive_property(pools, &mut findings);
    findings
}

/// The registry's rows against the pools that exist (`pools` sorted by
/// `(vm, pool)`, as the rows are): the same keys, and under each the
/// same policy and one usage cell.
fn audit_registry_policies(
    registry: &Registry,
    pools: &[(VmId, PoolId, &Pool)],
) -> Vec<AuditFinding> {
    let rows = registry.vms();
    let rows = rows.flat_map(|(vm, row)| row.pools.iter().map(move |r| (vm, r.0, r.1, &r.2)));
    let rows: Vec<_> = rows.collect();
    let mut findings = Vec::new();
    if !rows
        .iter()
        .map(|r| (r.0, r.1))
        .eq(pools.iter().map(|p| (p.0, p.1)))
    {
        findings.push(AuditFinding {
            invariant: "registry-policy",
            detail: format!(
                "registry lists {} pools but {} exist, or under other ids",
                rows.len(),
                pools.len()
            ),
        });
        return findings;
    }
    for (&(vm, pid, row, usage), &(_, _, pool)) in rows.iter().zip(pools) {
        let mut finding = |detail| {
            let detail = format!("{vm} {pid}: {detail}");
            findings.push(AuditFinding {
                invariant: "registry-policy",
                detail,
            })
        };
        if row != pool.policy() {
            finding(format!(
                "the registry row says {row:?} but the pool runs {:?}",
                pool.policy()
            ));
        }
        if !Arc::ptr_eq(usage, pool.usage()) {
            finding("the pool counts its pages in a cell its registry row does not read".into());
        }
    }
    findings
}

/// Invariant 10 (endurance plane): the pool's scalar wear total equals
/// the sum of its per-slot write counters, SSD writes never exceed
/// admissions, and the ghost filter's verdict counts partition its
/// attempts. Monotonicity (wear never decreases, survives recovery) is
/// enforced by the wear property tests, which can observe two points in
/// time; the auditor checks the instantaneous ledger shape.
fn wear_ledger(vm: VmId, pid: PoolId, pool: &Pool, findings: &mut Vec<AuditFinding>) {
    let w = &pool.wear;
    let slot_sum: u64 = w.slot_writes.iter().map(|&c| u64::from(c)).sum();
    if w.pages_written != slot_sum {
        findings.push(AuditFinding {
            invariant: "wear-ledger",
            detail: format!(
                "{vm} {pid}: pool wear total {} != sum of per-slot counters {slot_sum} \
                 (some SSD write was charged to the pool but not a slot, or vice versa)",
                w.pages_written
            ),
        });
    }
    if w.pages_written > w.pages_admitted {
        findings.push(AuditFinding {
            invariant: "wear-ledger",
            detail: format!(
                "{vm} {pid}: {} SSD writes exceed {} admitted pages (every physical \
                 write must trace to an admission)",
                w.pages_written, w.pages_admitted
            ),
        });
    }
    if w.spill_admits + w.spill_rejects != w.spill_attempts {
        findings.push(AuditFinding {
            invariant: "wear-admission",
            detail: format!(
                "{vm} {pid}: ghost filter verdicts {} + {} do not partition the {} \
                 attempts",
                w.spill_admits, w.spill_rejects, w.spill_attempts
            ),
        });
    }
}

/// Invariant 9: the slab arena partitions cleanly into live and free
/// slots, and the address map agrees with the slab.
fn arena_shape(vm: VmId, pid: PoolId, pool: &Pool, findings: &mut Vec<AuditFinding>) {
    let mut live = Reached::new(pool.arena_len());
    let live_len = pool
        .iter_ids()
        .filter(|&(id, _, _)| live.insert(id))
        .count();
    let past_free = pool.free_ids().map(|id| id.0 + 1).max().unwrap_or(0);
    let mut free = Reached::new(past_free.max(pool.arena_len()));
    let mut free_len = 0;
    for id in pool.free_ids() {
        if free.insert(id) {
            free_len += 1;
        } else {
            findings.push(AuditFinding {
                invariant: "arena-free-list",
                detail: format!(
                    "{vm} {pid}: free-list lists {id:?} twice (one id could be \
                     assigned to two slots)"
                ),
            });
        }
        if live.contains(id) {
            findings.push(AuditFinding {
                invariant: "arena-free-list",
                detail: format!(
                    "{vm} {pid}: free-list contains live {id:?} (the next insert \
                     would overwrite a resident slot)"
                ),
            });
        }
        if id.0 >= pool.arena_len() {
            findings.push(AuditFinding {
                invariant: "arena-free-list",
                detail: format!(
                    "{vm} {pid}: free-list id {id:?} is outside the arena of {} slots",
                    pool.arena_len()
                ),
            });
        }
    }
    if (live_len + free_len) as u64 != u64::from(pool.arena_len()) {
        findings.push(AuditFinding {
            invariant: "arena-shape",
            detail: format!(
                "{vm} {pid}: {live_len} live + {free_len} free slots do not cover the arena of {} \
                 (some index is neither live nor reusable)",
                pool.arena_len()
            ),
        });
    }
    for (id, addr, _) in pool.iter_ids() {
        if pool.lookup(addr) != Some(id) {
            findings.push(AuditFinding {
                invariant: "arena-map",
                detail: format!(
                    "{vm} {pid}: live slot {addr:?} at {id:?} looks up to {:?} \
                     (map and slab disagree)",
                    pool.lookup(addr)
                ),
            });
        }
    }
    file_chains(vm, pid, pool, findings);
}

/// Invariant 9, per-file chains: walking every chain from the head the
/// map names visits each occupied slot exactly once, under its own file,
/// with back links mirroring the walk.
fn file_chains(vm: VmId, pid: PoolId, pool: &Pool, findings: &mut Vec<AuditFinding>) {
    let mut finding = |detail: String| {
        findings.push(AuditFinding {
            invariant: "arena-file-chain",
            detail: format!("{vm} {pid}: {detail}"),
        })
    };
    let mut chained = Reached::new(pool.arena_len());
    for (file, head) in pool.file_heads() {
        let (mut prev, mut at) = (None, Some(head));
        while let Some(id) = at {
            let (Some((addr, _)), Some((back, next))) = (pool.slot_by_id(id), pool.file_links(id))
            else {
                finding(format!("chain of {file:?} reaches free {id:?}"));
                break;
            };
            if addr.file != file {
                finding(format!("chain of {file:?} holds {addr:?} at {id:?}"));
            }
            if back != prev {
                finding(format!(
                    "{id:?} on the chain of {file:?} links back to {back:?}, reached from {prev:?}"
                ));
            }
            if !chained.insert(id) {
                finding(format!("{id:?} is reached twice (chain of {file:?})"));
                break;
            }
            (prev, at) = (Some(id), next);
        }
    }
    for (id, _, _) in pool.iter_ids().filter(|&(id, _, _)| !chained.contains(id)) {
        finding(format!(
            "live {id:?} is on no file chain (flush_file would miss it)"
        ));
    }
}

/// A set of one pool's slab indexes, one bit per index below `len`:
/// what the walks and the free-list check mark, instead of a tree of
/// every entry.
struct Reached(Vec<u64>);

impl Reached {
    fn new(len: u32) -> Reached {
        Reached(vec![0; (len as usize).div_ceil(64)])
    }

    /// Marks `id`, which must lie below `len`; `false` if it already was
    /// marked.
    fn insert(&mut self, id: SlotId) -> bool {
        let (word, bit) = (id.0 as usize / 64, 1u64 << (id.0 % 64));
        let fresh = self.0[word] & bit == 0;
        self.0[word] |= bit;
        fresh
    }

    /// Whether `id` is marked (never, past `len`).
    fn contains(&self, id: SlotId) -> bool {
        let word = self.0.get(id.0 as usize / 64);
        word.is_some_and(|w| w & 1 << (id.0 % 64) != 0)
    }
}

/// Invariants 3 and 4: each store's queue, walked from its oldest end,
/// is a chain of that store's live slots in rising stamp order, with
/// back links mirroring the walk, ending at its youngest end, as long
/// as the store's usage; and every live slot is on its store's queue.
fn queue_chains(vm: VmId, pid: PoolId, pool: &Pool, findings: &mut Vec<AuditFinding>) {
    let mut finding = |invariant, detail: String| {
        let detail = format!("{vm} {pid}: {detail}");
        findings.push(AuditFinding { invariant, detail });
    };
    let mut queued = Reached::new(pool.arena_len());
    for placement in Placement::ALL {
        let (oldest, youngest) = pool.fifo_ends(placement);
        let (mut prev, mut at, mut len, mut last_seq) = (None, oldest, 0, None);
        while let Some(id) = at {
            let (Some((addr, slot)), Some((back, next))) =
                (pool.slot_by_id(id), pool.fifo_links(id))
            else {
                let detail = format!("{placement:?} queue reaches free {id:?}");
                finding("fifo-coverage", detail);
                break;
            };
            let (held, seq) = (slot.placement, slot.seq);
            if held != placement {
                let detail = format!("{placement:?} queue holds {addr:?} of the {held:?} store");
                finding("fifo-coverage", detail);
            }
            if back != prev {
                let from = format!("links back to {back:?}, reached from {prev:?}");
                finding(
                    "fifo-coverage",
                    format!("{id:?} on the {placement:?} queue {from}"),
                );
            }
            if !queued.insert(id) {
                let detail = format!("{id:?} is reached twice ({placement:?} queue)");
                finding("fifo-coverage", detail);
                break;
            }
            if let Some(prev) = last_seq.filter(|&prev| seq <= prev) {
                let detail = format!("{placement:?} FIFO seq {seq} follows {prev}");
                finding("fifo-order", detail + " (eviction order no longer FIFO)");
            }
            (prev, at, len, last_seq) = (Some(id), next, len + 1, Some(seq));
        }
        if prev != youngest {
            let detail = format!("{placement:?} queue ends at {prev:?}, youngest {youngest:?}");
            finding("fifo-coverage", detail);
        }
        let used = pool.used(placement);
        if len != used {
            let detail = format!("{placement:?} queue holds {len} pages, the store side {used}");
            finding("fifo-coverage", detail);
        }
    }
    for (id, addr, slot) in pool.iter_ids().filter(|&(id, _, _)| !queued.contains(id)) {
        let (seq, placement) = (slot.seq, slot.placement);
        let detail = format!("live slot {addr:?} ({id:?} seq {seq}) is on no {placement:?} queue");
        finding("fifo-coverage", detail + " (it could never be evicted)");
    }
}

/// Invariant 6: no block is cached twice within one VM. Each block is
/// looked up in the VM's pools of lower id; a hit names the lowest.
fn exclusive_property(pools: &[(VmId, PoolId, &Pool)], findings: &mut Vec<AuditFinding>) {
    for &(vm, pid, pool) in pools {
        let mut lower: Vec<_> = (pools.iter())
            .filter(|&&(v, p, _)| v == vm && p < pid)
            .map(|&(_, p, pool)| (p, pool))
            .collect();
        if lower.is_empty() {
            continue;
        }
        lower.sort_unstable_by_key(|&(p, _)| p);
        for (addr, _) in pool.iter() {
            let Some(&(first, _)) = lower.iter().find(|(_, q)| q.peek(addr).is_some()) else {
                continue;
            };
            findings.push(AuditFinding {
                invariant: "exclusive-cache",
                detail: format!(
                    "{vm}: block {addr:?} cached by both {first} and {pid} \
                     (second-chance copies must be exclusive)"
                ),
            });
        }
    }
}

/// Invariant 7: quarantine implies an empty SSD tier.
fn quarantine_emptiness(cache: &DoubleDeckerCache, findings: &mut Vec<AuditFinding>) {
    if !cache.ssd_quarantined() {
        return;
    }
    if cache.stores.ssd.used_pages() != 0 {
        findings.push(AuditFinding {
            invariant: "quarantine-empty",
            detail: format!(
                "SSD tier is quarantined yet its store counts {} used pages",
                cache.stores.ssd.used_pages()
            ),
        });
    }
    for (&(vm, pid), pool) in &cache.state.pools {
        if pool.used(Placement::Ssd) != 0 {
            findings.push(AuditFinding {
                invariant: "quarantine-empty",
                detail: format!(
                    "SSD tier is quarantined yet {vm} {pid} still holds {} SSD pages",
                    pool.used(Placement::Ssd)
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CacheConfig, CachePolicy, PageVersion, SecondChanceCache};
    use ddc_sim::SimTime;
    use ddc_storage::{BlockAddr, FileId};

    fn addr(f: u64, b: u64) -> BlockAddr {
        BlockAddr::new(FileId(f), b)
    }

    #[test]
    fn healthy_cache_audits_clean() {
        let mut cache = DoubleDeckerCache::new(CacheConfig::mem_and_ssd(64, 64));
        cache.add_vm(VmId(0), 60);
        cache.add_vm(VmId(1), 40);
        let web = cache.create_pool(VmId(0), CachePolicy::mem(70));
        let db = cache.create_pool(VmId(0), CachePolicy::ssd(100));
        let other = cache.create_pool(VmId(1), CachePolicy::hybrid(50));
        for b in 0..40 {
            cache.put(SimTime::ZERO, VmId(0), web, addr(1, b), PageVersion(b));
            cache.put(SimTime::ZERO, VmId(0), db, addr(2, b), PageVersion(b));
            cache.put(SimTime::ZERO, VmId(1), other, addr(3, b), PageVersion(b));
        }
        for b in 0..10 {
            cache.get(SimTime::ZERO, VmId(0), web, addr(1, b));
            cache.flush(VmId(0), db, addr(2, b));
        }
        cache.flush_file(VmId(1), other, FileId(3));
        let findings = audit(&cache);
        assert!(findings.is_empty(), "unexpected findings: {findings:?}");
    }

    #[test]
    fn detects_a_live_slot_missing_from_its_file_chain() {
        let mut pool = Pool::new(VmId(0), CachePolicy::mem(100));
        for b in 0..3 {
            pool.insert(addr(1, b), Placement::Mem, PageVersion(0), b);
        }
        let pools = [(VmId(0), PoolId(0), &pool)];
        assert_eq!(audit_pool_slice(&pools, 3), vec![]);
        pool.orphan_from_file_chain(addr(1, 1));
        let pools = [(VmId(0), PoolId(0), &pool)];
        let findings = audit_pool_slice(&pools, 3);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].invariant, "arena-file-chain");
        assert!(findings[0].detail.contains("on no file chain"));
        // flush_file now misses the orphan — what the invariant guards.
        assert_eq!(pool.remove_file(FileId(1)), (2, 0));
        assert!(pool.peek(addr(1, 1)).is_some());
    }

    #[test]
    fn detects_a_registry_row_that_drifted_from_its_pool() {
        let mut cache = DoubleDeckerCache::new(CacheConfig::mem_and_ssd(64, 64));
        let kept = cache.create_pool(VmId(0), CachePolicy::mem(70));
        let lost = cache.create_pool(VmId(0), CachePolicy::ssd(30));
        assert_eq!(audit(&cache), vec![]);
        let registry_findings = |cache: &DoubleDeckerCache| -> Vec<String> {
            let found = audit(cache).into_iter();
            let found = found.filter(|f| f.invariant == "registry-policy");
            found.map(|f| f.detail).collect()
        };

        // A policy set on the pool behind the registry's back: puts
        // would go to the SSD store, the share tables still say memory.
        let pool = cache.state.pools.get_mut(&(VmId(0), kept)).unwrap();
        pool.set_policy(CachePolicy::ssd(70));
        let found = registry_findings(&cache);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("the pool runs"), "{found:?}");
        let pool = cache.state.pools.get_mut(&(VmId(0), kept)).unwrap();
        pool.set_policy(CachePolicy::mem(70));
        assert_eq!(audit(&cache), vec![]);

        // A pool that counts its pages in a cell of its own (a clone):
        // the share tables and the victim walk would not see them.
        let key = (VmId(0), kept);
        let own = cache.state.pools[&key].clone();
        let registered = cache.state.pools.insert(key, own).unwrap();
        let found = registry_findings(&cache);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("does not read"), "{found:?}");
        cache.state.pools.insert(key, registered);
        assert_eq!(audit(&cache), vec![]);

        // A pool that went without its row.
        cache.state.pools.remove(&(VmId(0), lost));
        let found = registry_findings(&cache);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("lists 2 pools but 1 exist"), "{found:?}");
    }

    #[test]
    fn a_skewed_weight_table_is_detected() {
        let mut cache = DoubleDeckerCache::new(CacheConfig::mem_and_ssd(64, 64));
        cache.add_vm(VmId(1), 100);
        cache.add_vm(VmId(2), 300);
        let a = cache.create_pool(VmId(1), CachePolicy::mem(100));
        cache.create_pool(VmId(2), CachePolicy::hybrid(100));
        assert_eq!(cache.pool_entitlement(VmId(1), a), 16);
        assert_eq!(audit(&cache), vec![]);
        for placement in Placement::ALL {
            cache.registry.skew_weights(placement);
            let found = audit(&cache).into_iter();
            let found: Vec<_> = found.filter(|f| f.invariant == "registry-shares").collect();
            assert!(
                found[0].detail.ends_with("not the registry rows'"),
                "{found:?}"
            );
            assert!(found.iter().all(|f| f.detail.starts_with(placement.name())));
            // VM 1 holds no SSD page, so only its memory share moved.
            let moved = found
                .iter()
                .filter(|f| f.detail.contains("fresh share table"));
            assert_eq!(moved.count(), [2, 0][placement.idx()], "{found:?}");
            // Any control record rebuilds the table from the rows.
            cache.set_vm_weight(VmId(1), 100);
            assert_eq!(audit(&cache), vec![]);
        }
        assert_eq!(cache.pool_entitlement(VmId(1), a), 16);
    }

    #[test]
    fn detects_exclusivity_violation_via_migrate_shadow() {
        // Build a duplicate by hand: two pools of one VM holding the same
        // block (migrate_object normally prevents this).
        let mut cache = DoubleDeckerCache::new(CacheConfig::mem_only(64));
        let a = cache.create_pool(VmId(0), CachePolicy::mem(50));
        let b = cache.create_pool(VmId(0), CachePolicy::mem(50));
        cache.put(SimTime::ZERO, VmId(0), a, addr(1, 0), PageVersion(1));
        cache.put(SimTime::ZERO, VmId(0), b, addr(1, 0), PageVersion(1));
        let findings = audit(&cache);
        assert!(
            findings.iter().any(|f| f.invariant == "exclusive-cache"),
            "duplicate went undetected: {findings:?}"
        );
        // A third copy, and a copy in another VM that is no duplicate:
        // each later copy is reported once, against the lowest pool id.
        let c = cache.create_pool(VmId(0), CachePolicy::mem(50));
        let other = cache.create_pool(VmId(1), CachePolicy::mem(50));
        cache.put(SimTime::ZERO, VmId(0), c, addr(1, 0), PageVersion(1));
        cache.put(SimTime::ZERO, VmId(1), other, addr(1, 0), PageVersion(1));
        let mut found: Vec<_> = (audit(&cache).into_iter())
            .filter(|f| f.invariant == "exclusive-cache")
            .map(|f| f.detail)
            .collect();
        found.sort();
        let named = |later| {
            format!(
                "vm0: block {:?} cached by both {a} and {later} (second-chance copies must \
                 be exclusive)",
                addr(1, 0)
            )
        };
        assert_eq!(found, vec![named(b), named(c)]);
    }

    #[test]
    fn audit_is_clean_across_modes_and_quarantine() {
        use crate::PartitionMode;
        for mode in [
            PartitionMode::DoubleDecker,
            PartitionMode::Global,
            PartitionMode::Strict,
        ] {
            let mut cache =
                DoubleDeckerCache::new(CacheConfig::mem_and_ssd(32, 32).with_mode(mode));
            let pool = cache.create_pool(VmId(0), CachePolicy::ssd(100));
            for b in 0..64 {
                cache.put(SimTime::ZERO, VmId(0), pool, addr(1, b), PageVersion(b));
            }
            let findings = audit(&cache);
            assert!(findings.is_empty(), "{mode:?}: {findings:?}");
        }
    }

    #[test]
    fn a_live_slot_missing_from_its_queue_is_detected() {
        let mut pool = Pool::new(VmId(0), CachePolicy::mem(100));
        for b in 0..3 {
            pool.insert(addr(1, b), Placement::Mem, PageVersion(0), b);
        }
        let pools = [(VmId(0), PoolId(0), &pool)];
        assert_eq!(audit_pool_slice(&pools, 3), vec![]);
        pool.orphan_from_queue(addr(1, 1));
        let pools = [(VmId(0), PoolId(0), &pool)];
        let found: Vec<_> = audit_pool_slice(&pools, 3)
            .into_iter()
            .map(|f| (f.invariant, f.detail))
            .collect();
        assert_eq!(found.len(), 2, "{found:?}");
        assert!(found.iter().all(|f| f.0 == "fifo-coverage"), "{found:?}");
        assert!(
            found[0]
                .1
                .ends_with("queue holds 2 pages, the store side 3"),
            "{found:?}"
        );
        assert!(found[1].1.contains("is on no Mem queue"), "{found:?}");
        // Eviction now misses the orphan: what the invariant guards.
        assert_eq!(pool.pop_oldest(Placement::Mem).unwrap().0, addr(1, 0));
        assert_eq!(pool.pop_oldest(Placement::Mem).unwrap().0, addr(1, 2));
        assert_eq!(pool.pop_oldest(Placement::Mem), None);
        assert_eq!(pool.used(Placement::Mem), 1);
    }

    #[test]
    fn finding_display_is_readable() {
        let f = AuditFinding {
            invariant: "store-accounting",
            detail: "mem store counts 3 used pages but pools hold 2".into(),
        };
        assert_eq!(
            f.to_string(),
            "[store-accounting] mem store counts 3 used pages but pools hold 2"
        );
    }
}
