//! Cross-shard invariant auditor for [`ShardedCache`].
//!
//! Locks the registry and every shard (the crate's lock-all discipline),
//! then cross-checks the sharded assembly the same way
//! `ddc_hypercache::audit` checks the serial engine:
//!
//! 1. **Ledger accounting** — each store's atomic used-page ledger
//!    equals the sum of per-pool usage across all shards and never
//!    exceeds capacity. This is the invariant the CAS allocation loop
//!    exists to protect; a mismatch means pages leaked or
//!    double-freed across threads.
//! 2. **Shard map** — every pool sits in the shard its key hashes to.
//!    **Registry** (`registry-policy`) — the registry's pool set is the
//!    union of the shards' pool sets (a divergence would make
//!    hypercalls route to a shard that doesn't hold the pool), and each
//!    row mirrors its pool's policy: puts are routed and share tables
//!    built from the rows, re-homing is decided from the pools.
//! 3. **Pool coherence** — index coherence, FIFO coverage and order,
//!    the exclusive-cache property and sequence monotonicity, via
//!    [`ddc_hypercache::audit_pool_slice`] over the flattened pools.
//! 4. **Shard-FIFO tombstones** — in Global mode, the one mode whose
//!    shards keep Global FIFOs, per shard and store the dead-entry count
//!    in the Global FIFO equals the shard's tombstone counter, as on the
//!    serial engine (an under-count would starve compaction, an
//!    over-count means a removal was counted twice).
//! 5. **Entitlement sums** — per store, VM entitlements sum to at most
//!    capacity and pool entitlements to at most the VM share
//!    (normalized shares, paper §4.2), computed from a fresh share
//!    table over the locked usage. **Memo accuracy** — the auditing
//!    handle's share memo, where it is filled and still valid by its
//!    own rule, equals that fresh table.
//! 6. **Mirror accuracy** — each pool's atomic usage mirror (the
//!    lock-free snapshot source for two-phase eviction) equals the
//!    pool's exact usage under lock-all quiescence. A drift here means
//!    phase-1 victim selection is working from corrupt data.
//!
//! 7. **Journal health** — when the plane journals (DESIGN.md §14),
//!    every live shard segment must replay clean end-to-end under
//!    quiescence (the auditor holds every lock, and we wrote every
//!    byte ourselves — a torn or corrupt frame here means the
//!    group-commit path emits records a crash would mangle), with
//!    strictly increasing generations per segment, no generation
//!    claimed twice across segments, and the record counter exact.
//!    **Durable marks** (`journal-durable`, DESIGN.md §14.2): no
//!    segment's commit cell is mid-append at rest, its published
//!    length is the segment's length, its durable mark sits on a record
//!    boundary at or below that length under the same install epoch,
//!    and every record at or below the commit epoch lies below its
//!    segment's mark — the promise `commit_tick` makes without a lock.
//! 8. **Read-plane coherence** (DESIGN.md §15) — every shard's seqlock
//!    sequence word is even at rest (an odd value means a writer died
//!    mid-publish and readers would spin forever); unless the plane
//!    latched its overflow flag, its membership equals the exact union
//!    of live `(vm, pool, addr)` keys homed on the shard (a missing key
//!    is a wrong lock-free miss — the one lie the design must never
//!    tell). **Front leaves** (`front-tree`) — in Global mode, the only
//!    mode that maintains or reads them, each store's leaf for a shard
//!    holds the sequence stamp of that shard's raw FIFO front (live or
//!    dead), or the empty marker for an empty FIFO: a wrong leaf sends
//!    Global eviction to the wrong shard.
//!
//! Arena-shape invariants (free-list disjoint from the live set, every
//! live slot covered by exactly one FIFO entry or tombstone) ride along
//! via [`ddc_hypercache::audit_pool_slice`] in step 3.

use std::sync::atomic::Ordering;

use ddc_cleancache::{PoolId, VmId};
use ddc_hypercache::index::{Placement, Pool};
use ddc_hypercache::{
    audit_pool_slice, audit_registry_policies, audit_remote_bindings, audit_share_table,
    AuditFinding,
};
use ddc_storage::{BlockAddr, Journal, RemoteBinding};

use crate::sharded::{ShardedCache, EMPTY_FRONT};

fn placements() -> [Placement; 2] {
    [Placement::Mem, Placement::Ssd]
}

fn store_name(placement: Placement) -> &'static str {
    match placement {
        Placement::Mem => "mem",
        Placement::Ssd => "ssd",
    }
}

/// Audits every cross-shard invariant of `cache`, returning one finding
/// per violation (empty = healthy). Takes the lock-all path, so call it
/// between phases, not on the hot path.
pub fn audit(cache: &ShardedCache) -> Vec<AuditFinding> {
    cache.with_all_locked(|reg, shards, mem, ssd, next_seq| {
        let mut findings = Vec::new();

        // 1. Ledger accounting.
        for placement in placements() {
            let ledger = match placement {
                Placement::Mem => mem,
                Placement::Ssd => ssd,
            };
            let pooled: u64 = shards
                .iter()
                .flat_map(|s| s.state.pools.values())
                .map(|p| p.used(placement))
                .sum();
            if ledger.used_pages() != pooled {
                findings.push(AuditFinding {
                    invariant: "ledger-accounting",
                    detail: format!(
                        "{} ledger counts {} used pages but pools hold {pooled}",
                        store_name(placement),
                        ledger.used_pages()
                    ),
                });
            }
            if ledger.used_pages() > ledger.capacity_pages() {
                findings.push(AuditFinding {
                    invariant: "ledger-accounting",
                    detail: format!(
                        "{} ledger uses {} pages over its capacity of {}",
                        store_name(placement),
                        ledger.used_pages(),
                        ledger.capacity_pages()
                    ),
                });
            }
        }

        // 2. Shard map: placement by hash, and registry ↔ shard agreement.
        let mut shard_pools = Vec::new();
        for (si, shard) in shards.iter().enumerate() {
            for (&(vm, pid), pool) in &shard.state.pools {
                shard_pools.push((vm, pid, pool.policy()));
                let home = cache.shard_of(vm, pid);
                if home != si {
                    findings.push(AuditFinding {
                        invariant: "shard-map",
                        detail: format!("{vm} {pid} sits in shard {si} but hashes to shard {home}"),
                    });
                }
            }
        }
        shard_pools.sort_unstable_by_key(|&(vm, pid, _)| (vm, pid));
        findings.extend(audit_registry_policies(reg, &shard_pools));

        // 3. Pool coherence, in registry order like the serial engine.
        let locked_pool = |vm, pid| shards[cache.shard_of(vm, pid)].state.pools.get(&(vm, pid));
        let flat: Vec<(VmId, PoolId, &Pool)> = reg
            .pool_ids()
            .filter_map(|(vm, pid)| Some((vm, pid, locked_pool(vm, pid)?)))
            .collect();
        findings.extend(audit_pool_slice(&flat, next_seq));

        // 4. Shard-FIFO tombstones, where the shard keeps Global FIFOs.
        for (si, shard) in shards.iter().enumerate() {
            let Some(global) = shard.state.global_fifos() else {
                continue;
            };
            for placement in placements() {
                let dead = shard.state.dead_fifo_entries(placement);
                let stale = global.stale(placement);
                if dead != stale {
                    findings.push(AuditFinding {
                        invariant: "shard-fifo-tombstones",
                        detail: format!(
                            "shard {si} {} FIFO has {dead} dead entries but the \
                             tombstone counter says {stale} (compaction is skewed)",
                            store_name(placement)
                        ),
                    });
                }
            }
        }

        // 5. Entitlement sums from a fresh share table over the locked
        // usage, and this handle's memo against it.
        for placement in placements() {
            let ledger = match placement {
                Placement::Mem => mem,
                Placement::Ssd => ssd,
            };
            let table = reg.share_table(ledger.capacity_pages(), placement, |vm, pid, _| {
                locked_pool(vm, pid).map_or(0, |p| p.used(placement))
            });
            let name = store_name(placement);
            findings.extend(audit_share_table(name, &table, ledger.capacity_pages()));
            if cache
                .cached_share_table(placement)
                .is_some_and(|t| t != table)
            {
                findings.push(AuditFinding {
                    invariant: "memo-accuracy",
                    detail: format!(
                        "{name} store: this handle's share memo passes its own validity \
                         check but differs from a fresh build (entitlements served stale)"
                    ),
                });
            }
        }

        // 6. Mirror accuracy: the two-phase snapshot source must match
        // the exact usage while everything is locked.
        for (vm, row) in reg.vms() {
            for (pid, _, mirror) in &row.pools {
                let Some(pool) = locked_pool(vm, *pid) else {
                    continue;
                };
                for placement in placements() {
                    let mirrored = mirror.pages(placement);
                    let exact = pool.used(placement);
                    if mirrored != exact {
                        findings.push(AuditFinding {
                            invariant: "mirror-accuracy",
                            detail: format!(
                                "{vm} {pid} {} mirror reads {mirrored} pages but the \
                                 pool holds {exact}",
                                store_name(placement)
                            ),
                        });
                    }
                }
            }
        }

        // 6b. Remote bindings: the shared invariant-10 checks (outcome
        // accounting, breaker agreement, in-flight cap, no stale staged
        // pages), plus the routing flag — a pool is marked remote-bound
        // on its mirror iff its home shard holds a binding; a flag
        // without a binding would still be safe (locked path, plain
        // miss) but a binding without the flag lets the lock-free plane
        // answer misses the remote should have served.
        let mut bindings: Vec<(VmId, PoolId, &RemoteBinding)> = Vec::new();
        for shard in shards.iter() {
            for (&(vm, pid), b) in &shard.state.remote_bindings {
                bindings.push((vm, pid, b));
            }
        }
        bindings.sort_unstable_by_key(|&(vm, pid, _)| (vm, pid));
        findings.extend(audit_remote_bindings(&bindings));
        for &(vm, pid, _) in &bindings {
            let flagged = reg.pool(vm, pid).is_some_and(|row| row.2.remote_bound());
            if !flagged {
                findings.push(AuditFinding {
                    invariant: "remote-consistency",
                    detail: format!(
                        "{vm} {pid} has a remote binding but its mirror is not \
                         marked remote-bound (lock-free misses bypass the remote)"
                    ),
                });
            }
        }

        // 7. Journal health (only when the plane journals).
        if let Some(expected_records) = cache.journal_records() {
            // Sampled before the marks: a committer still sweeping only
            // raises marks, and publishes its epoch after them.
            let commit_epoch = cache.commit_epoch();
            let mut all_gens: Vec<u64> = Vec::new();
            for (si, shard) in shards.iter().enumerate() {
                let Some(journal) = shard.journal.as_ref() else {
                    findings.push(AuditFinding {
                        invariant: "journal-health",
                        detail: format!("journaling is on but shard {si} has no segment"),
                    });
                    continue;
                };
                let (records, stats) = Journal::replay(journal.bytes());
                if stats.torn_tail || stats.corrupt {
                    findings.push(AuditFinding {
                        invariant: "journal-health",
                        detail: format!(
                            "shard {si} segment does not replay clean at rest \
                             (torn_tail={} corrupt={} after {} records)",
                            stats.torn_tail,
                            stats.corrupt,
                            records.len()
                        ),
                    });
                }
                let mut prev = 0u64;
                for &(gen, _) in &records {
                    if gen <= prev {
                        findings.push(AuditFinding {
                            invariant: "journal-health",
                            detail: format!(
                                "shard {si} segment generations are not strictly \
                                 increasing ({gen} follows {prev})"
                            ),
                        });
                    }
                    prev = gen;
                    all_gens.push(gen);
                }

                let mut durable_finding = |detail: String| {
                    findings.push(AuditFinding {
                        invariant: "journal-durable",
                        detail: format!("shard {si}: {detail}"),
                    })
                };
                let cell = cache.commit_cell(si);
                if cell.append_in_flight() {
                    durable_finding("commit cell is odd at rest — an append never closed".into());
                }
                let (appended_epoch, appended) = cell.appended();
                let (durable_epoch, durable) = cell.durable();
                if appended != journal.len() {
                    durable_finding(format!(
                        "cell publishes {appended} appended bytes but the segment holds {}",
                        journal.len()
                    ));
                }
                if durable_epoch != appended_epoch || durable > appended {
                    durable_finding(format!(
                        "durable mark {durable} (install {durable_epoch}) is not within \
                         the {appended} appended bytes (install {appended_epoch})"
                    ));
                }
                let bounds = Journal::record_boundaries(journal.bytes());
                if durable != 0 && bounds.binary_search(&durable).is_err() {
                    durable_finding(format!("durable mark {durable} splits a record"));
                }
                let promised = records
                    .iter()
                    .zip(&bounds)
                    .filter(|&(&(gen, _), &end)| gen <= commit_epoch && end > durable)
                    .count();
                if promised > 0 {
                    durable_finding(format!(
                        "{promised} records at or below commit epoch {commit_epoch} \
                         lie above the durable mark {durable}"
                    ));
                }
            }
            all_gens.sort_unstable();
            if all_gens.windows(2).any(|w| w[0] == w[1]) {
                findings.push(AuditFinding {
                    invariant: "journal-health",
                    detail: "a record generation was claimed by two segments".to_owned(),
                });
            }
            if all_gens.len() as u64 != expected_records {
                findings.push(AuditFinding {
                    invariant: "journal-health",
                    detail: format!(
                        "segments hold {} records but the counter says {expected_records}",
                        all_gens.len()
                    ),
                });
            }
        }

        // 8a. Read planes: seq word even at rest; membership exactly the
        // live key union of the shard (unless the plane overflowed and
        // lock-free reads are already disabled there).
        for (si, shard) in shards.iter().enumerate() {
            let plane = cache.read_plane(si);
            if !plane.seq().is_multiple_of(2) {
                findings.push(AuditFinding {
                    invariant: "read-plane",
                    detail: format!(
                        "shard {si} seqlock word is odd ({}) at rest — a write \
                         never completed",
                        plane.seq()
                    ),
                });
            }
            if plane.overflowed() {
                continue;
            }
            let mut live: Vec<(VmId, PoolId, BlockAddr)> = shard
                .state
                .pools
                .iter()
                .flat_map(|(&(vm, pid), pool)| pool.iter().map(move |(addr, _)| (vm, pid, addr)))
                .collect();
            live.sort_unstable();
            let mut published = plane.entries();
            published.sort_unstable();
            if live != published {
                findings.push(AuditFinding {
                    invariant: "read-plane",
                    detail: format!(
                        "shard {si} read plane publishes {} keys but the shard \
                         holds {} live keys (lock-free misses would lie)",
                        published.len(),
                        live.len()
                    ),
                });
            }
        }

        // 8b. Front leaves: each mirrors its shard's raw Global FIFO
        // front (dead or live). Only shards that keep Global FIFOs have
        // fronts — the other modes never read the leaves and skip their
        // maintenance, so theirs are legitimately stale.
        for placement in placements() {
            let leaves = cache.front_leaves(placement);
            for ((si, shard), leaf) in shards.iter().enumerate().zip(leaves) {
                let Some(global) = shard.state.global_fifos() else {
                    continue;
                };
                let want = global.front_seq(placement).unwrap_or(EMPTY_FRONT);
                let got = leaf.load(Ordering::Acquire);
                if got != want {
                    findings.push(AuditFinding {
                        invariant: "front-tree",
                        detail: format!(
                            "shard {si} {} leaf holds seq {got} but the FIFO front \
                             is {want}",
                            store_name(placement)
                        ),
                    });
                }
            }
        }

        findings
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_cleancache::{CachePolicy, PageVersion, SecondChanceCache};
    use ddc_hypercache::{CacheConfig, PartitionMode};
    use ddc_sim::SimTime;
    use ddc_storage::{FileId, JournalRecord};

    fn durable_findings(cache: &ShardedCache) -> Vec<String> {
        findings_of(cache, "journal-durable")
    }

    fn findings_of(cache: &ShardedCache, invariant: &str) -> Vec<String> {
        let found = audit(cache).into_iter();
        let found = found.filter(|f| f.invariant == invariant);
        found.map(|f| f.detail).collect()
    }

    #[test]
    fn a_registry_row_that_drifted_from_its_pool_is_detected() {
        let mut cache = ShardedCache::new(CacheConfig::mem_and_ssd(64, 64), 4);
        let pool = cache.create_pool(VmId(1), CachePolicy::mem(70));
        assert_eq!(audit(&cache), vec![]);
        // Puts are routed by the row (memory), re-homing would be
        // decided by the pool (SSD).
        cache.skew_pool_policy(VmId(1), pool, CachePolicy::ssd(70));
        let found = findings_of(&cache, "registry-policy");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("the pool runs"), "{found:?}");
        cache.skew_pool_policy(VmId(1), pool, CachePolicy::mem(70));
        assert_eq!(audit(&cache), vec![]);
    }

    #[test]
    fn a_share_memo_that_validates_but_is_wrong_is_detected() {
        let mut cache = ShardedCache::new(CacheConfig::mem_and_ssd(64, 64), 4);
        cache.add_vm(VmId(1), 100);
        cache.add_vm(VmId(2), 300);
        let a = cache.create_pool(VmId(1), CachePolicy::mem(100));
        cache.create_pool(VmId(2), CachePolicy::hybrid(100));
        // Warm the memo: filled and right.
        assert_eq!(cache.pool_stats(VmId(1), a).unwrap().entitlement_pages, 16);
        assert_eq!(audit(&cache), vec![]);
        for placement in placements() {
            cache.skew_share_memo(placement);
            let found = findings_of(&cache, "memo-accuracy");
            assert_eq!(found.len(), 1, "{placement:?}: {found:?}");
            assert!(found[0].starts_with(store_name(placement)), "{found:?}");
            // Any registry mutation retires it (a read would serve it,
            // and in a debug build trip the memo's own assertion).
            cache.set_vm_weight(VmId(1), 100);
            assert_eq!(audit(&cache), vec![]);
        }
        assert_eq!(cache.pool_stats(VmId(1), a).unwrap().entitlement_pages, 16);
    }

    #[test]
    fn a_front_leaf_that_drifted_from_its_fifo_is_detected_in_global_mode() {
        for mode in [PartitionMode::Global, PartitionMode::DoubleDecker] {
            let config = CacheConfig::mem_and_ssd(64, 64).with_mode(mode);
            let mut cache = ShardedCache::new(config, 4);
            cache.add_vm(VmId(1), 100);
            let pool = cache.create_pool(VmId(1), CachePolicy::mem(100));
            let si = cache.shard_of(VmId(1), pool);
            for block in 0..8 {
                let addr = BlockAddr::new(FileId(1), block);
                cache.put(SimTime::ZERO, VmId(1), pool, addr, PageVersion(1));
            }
            assert_eq!(audit(&cache), vec![], "{mode:?}");
            // An occupied leaf that points past its front, and an empty
            // shard's leaf that claims a front.
            let empty = (si + 1) % cache.shard_count();
            cache.skew_front_leaf(si, Placement::Mem, 1 << 40);
            cache.skew_front_leaf(empty, Placement::Ssd, 1);
            let found = findings_of(&cache, "front-tree");
            if mode == PartitionMode::Global {
                assert_eq!(found.len(), 2, "{found:?}");
                assert!(
                    found[0].starts_with(&format!("shard {si} mem")),
                    "{found:?}"
                );
                assert!(
                    found[1].starts_with(&format!("shard {empty} ssd")),
                    "{found:?}"
                );
            } else {
                // Nothing reads the leaves outside Global mode.
                assert_eq!(found, Vec::<String>::new());
            }
        }
    }

    #[test]
    fn a_durable_mark_moved_by_half_a_record_is_detected() {
        let mut cache = ShardedCache::new(CacheConfig::mem_only(64), 4);
        cache.enable_journal();
        cache.add_vm(VmId(1), 100);
        let pool = cache.create_pool(VmId(1), CachePolicy::mem(100));
        let si = cache.shard_of(VmId(1), pool);
        let put = |cache: &mut ShardedCache, block: u64| {
            let addr = BlockAddr::new(FileId(1), block);
            cache.put(SimTime::ZERO, VmId(1), pool, addr, PageVersion(1));
        };
        for block in 0..8 {
            put(&mut cache, block);
        }
        cache.commit_tick();
        for block in 8..12 {
            put(&mut cache, block);
        }
        assert!(audit(&cache).is_empty(), "{:?}", audit(&cache));
        let half = (JournalRecord::PUT_LEN / 2) as i64;

        // Rolled back: the mark splits a record, and a record the
        // commit epoch promises is no longer below it.
        cache.skew_durable_mark(si, -half);
        let found = durable_findings(&cache);
        assert!(
            found.iter().any(|d| d.contains("splits a record")),
            "{found:?}"
        );
        assert!(found.iter().any(|d| d.contains("lie above")), "{found:?}");
        cache.skew_durable_mark(si, half);
        assert!(audit(&cache).is_empty());

        // Rolled forward into the uncommitted tail: splits a record.
        cache.skew_durable_mark(si, half);
        let found = durable_findings(&cache);
        assert!(
            found.iter().any(|d| d.contains("splits a record")),
            "{found:?}"
        );
        cache.skew_durable_mark(si, -half);

        // Rolled forward past everything appended.
        cache.commit_tick();
        assert!(audit(&cache).is_empty());
        cache.skew_durable_mark(si, half);
        let found = durable_findings(&cache);
        assert!(found.iter().any(|d| d.contains("not within")), "{found:?}");
        cache.skew_durable_mark(si, -half);
        assert!(audit(&cache).is_empty());
    }
}
