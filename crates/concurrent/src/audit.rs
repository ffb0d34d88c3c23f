//! Cross-shard invariant auditor for [`ShardedCache`].
//!
//! Locks the registry and every shard (the crate's lock-all discipline),
//! runs the invariants both engines hold over that cut
//! ([`ddc_hypercache::audit_cut`]: store accounting against the atomic
//! ledgers — the invariant the CAS allocation loop exists to protect —
//! entitlement sums, registry policies and shares, remote bindings,
//! and index coherence, queue chains and FIFO order, exclusivity,
//! sequence monotonicity and arena shape over every pool), then what
//! only the sharded layout has:
//!
//! 1. **Shard map** — every pool sits in the shard its key hashes to.
//! 2. **Journal health** — when the plane journals (DESIGN.md §14),
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

use ddc_hypercache::{audit_cut, AuditFinding};
use ddc_storage::Journal;

use crate::sharded::ShardedCache;

/// Audits every cross-shard invariant of `cache`, returning one finding
/// per violation (empty = healthy). Takes the lock-all path, so call it
/// between phases, not on the hot path.
pub fn audit(cache: &ShardedCache) -> Vec<AuditFinding> {
    cache.with_all_locked(|reg, shards, stores, next_seq| {
        let mut findings = audit_cut(reg, &ShardedCache::cut(reg, shards), stores, next_seq);

        // 1. Shard map.
        for (si, shard) in shards.iter().enumerate() {
            for &(vm, pid) in shard.state.pools.keys() {
                let home = cache.shard_of(vm, pid);
                if home != si {
                    findings.push(AuditFinding {
                        invariant: "shard-map",
                        detail: format!("{vm} {pid} sits in shard {si} but hashes to shard {home}"),
                    });
                }
            }
        }

        // 2. Journal health (only when the plane journals).
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

        findings
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddc_cleancache::{CachePolicy, PageVersion, SecondChanceCache, VmId};
    use ddc_hypercache::CacheConfig;
    use ddc_sim::SimTime;
    use ddc_storage::{BlockAddr, FileId, JournalRecord};

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
        // Shares are split by the row (memory), puts placed by the
        // pool (SSD).
        cache.skew_pool_policy(VmId(1), pool, CachePolicy::ssd(70));
        let found = findings_of(&cache, "registry-policy");
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].contains("the pool runs"), "{found:?}");
        cache.skew_pool_policy(VmId(1), pool, CachePolicy::mem(70));
        assert_eq!(audit(&cache), vec![]);
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
