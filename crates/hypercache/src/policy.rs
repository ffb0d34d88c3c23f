//! The policy module: entitlements and Algorithm 1 victim selection.
//!
//! Entitlements are derived by applying relative weights at each level
//! (paper §3): a VM's entitlement is its weight share of the store
//! capacity; a container's entitlement is its weight share of its VM's
//! entitlement, computed among the containers of that VM assigned to the
//! same store.
//!
//! Victim selection follows the paper's Algorithm 1 exactly: among the
//! entities that would be over their entitlement after the pending store,
//! pick the one with the largest *exceed* value after redistributing the
//! unused entitlement of underused entities proportionally to the weights
//! of the overused ones.

use ddc_cleancache::{PoolId, VmId};

/// The usage snapshot of one cache-consuming entity (a VM at the top
/// level, a container within a VM) fed to [`select_victim`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EntityUsage {
    /// Pages the entity is entitled to (weight share of capacity).
    pub entitlement: u64,
    /// Pages the entity currently occupies in the store.
    pub used: u64,
    /// The entity's configured weight.
    pub weight: u64,
}

impl EntityUsage {
    /// Creates a usage snapshot.
    pub fn new(entitlement: u64, used: u64, weight: u64) -> EntityUsage {
        EntityUsage {
            entitlement,
            used,
            weight,
        }
    }
}

/// The paper's `exceed` function (equation 1):
///
/// `exceed(E, b, cw) = E.used + EvictionSize − (E.entitlement + b × E.weight / cw)`
///
/// where `b` is the total underused buffer and `cw` the cumulative weight
/// of the overused entities. Returned as `f64` because the redistribution
/// term is fractional; negative values mean the entity would still be
/// within its effective entitlement.
pub fn exceed(
    entity: EntityUsage,
    eviction_size: u64,
    underused_buf: u64,
    cuml_weight: u64,
) -> f64 {
    let redistributed = if cuml_weight == 0 {
        0.0
    } else {
        underused_buf as f64 * entity.weight as f64 / cuml_weight as f64
    };
    (entity.used as f64 + eviction_size as f64) - (entity.entitlement as f64 + redistributed)
}

/// Algorithm 1: selects the victim entity for an eviction of
/// `eviction_size` pages. Returns the index into `entities` of the victim,
/// or `None` when no entity is over its effective limit (no eviction is
/// required) or the list is empty.
///
/// Deviations from the pseudocode: none in logic; ties on the maximal
/// exceed value resolve to the first (lowest-index) entity, matching the
/// pseudocode's strict `<` comparison.
pub fn select_victim(entities: &[EntityUsage], eviction_size: u64) -> Option<usize> {
    select_victim_inner(entities, eviction_size, true)
}

fn select_victim_inner(
    entities: &[EntityUsage],
    eviction_size: u64,
    redistribute: bool,
) -> Option<usize> {
    let mut overused: Vec<usize> = Vec::new();
    let mut cuml_weight: u64 = 0;
    let mut underused_buf: u64 = 0;

    for (i, e) in entities.iter().enumerate() {
        if e.entitlement < e.used + eviction_size {
            overused.push(i);
            cuml_weight += e.weight;
        }
        if redistribute && e.entitlement.saturating_sub(e.used) > 2 * eviction_size {
            underused_buf += e.entitlement - e.used;
        }
    }

    let mut best = *overused.first()?;
    let mut best_exceed = exceed(entities[best], eviction_size, underused_buf, cuml_weight);
    for &i in overused.iter().skip(1) {
        let v = exceed(entities[i], eviction_size, underused_buf, cuml_weight);
        if v > best_exceed {
            best = i;
            best_exceed = v;
        }
    }
    Some(best)
}

/// Splits `capacity` into entitlements proportional to `weights`.
/// Zero-weight entities get zero; rounding remainders go to the
/// largest-weight entities first (ties to the lower index) so the
/// shares always sum to `capacity` when any weight is positive. Each
/// floor loses less than a page and a zero weight loses nothing, so the
/// remainder is smaller than the number of positive weights: one page
/// each to the first `remainder` entities in that order, all positive
/// because zero weights sort last.
pub fn entitlements(capacity: u64, weights: &[u64]) -> Vec<u64> {
    let total: u64 = weights.iter().sum();
    if total == 0 {
        return vec![0; weights.len()];
    }
    let mut shares: Vec<u64> = weights
        .iter()
        .map(|&w| (capacity as u128 * w as u128 / total as u128) as u64)
        .collect();
    let remainder = capacity - shares.iter().sum::<u64>();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    for &i in &order[..remainder as usize] {
        shares[i] += 1;
    }
    shares
}

/// Entity `i`'s entry of [`entitlements`]`(capacity, weights)`, without
/// the vector: its floor share, plus a page if fewer than `remainder`
/// entities rank before it (heavier, or as heavy at a lower index); the
/// remainder is the floors' remainders summed over the total weight. A
/// zero weight takes nothing and moves no other share. `weights` is
/// walked twice: a source that reads differently the second time (a
/// usage cell racing the read) gets a share that may be off, never an
/// overflow or a panic.
pub fn share_of(capacity: u64, weights: impl Iterator<Item = u64> + Clone, i: usize) -> u64 {
    let (mut total, mut own) = (0u64, 0);
    for (j, w) in weights.clone().enumerate() {
        total += w;
        if j == i {
            own = w;
        }
    }
    if own == 0 {
        return 0;
    }
    let (mut floor, mut remainders, mut ahead) = (0, 0u128, 0u128);
    for (j, w) in weights.enumerate() {
        let (q, r) = match capacity.checked_mul(w) {
            Some(product) => (product / total, u128::from(product % total)),
            None => {
                let (product, total) = (u128::from(capacity) * u128::from(w), u128::from(total));
                ((product / total) as u64, product % total)
            }
        };
        remainders += r;
        ahead += u128::from(w > own || w == own && j < i);
        if j == i {
            floor = q;
        }
    }
    floor.saturating_add(u64::from(ahead * u128::from(total) < remainders))
}

/// [`ShareTable::select_victim`]'s walk over any table: `vms` per
/// participating VM, `pools_in(v)` the participating pools of the `v`th
/// in id order. Answers `(VM index, pool index)`.
pub(crate) fn two_level_victim<I: Iterator<Item = EntityUsage>>(
    strict: bool,
    batch: u64,
    vms: &[EntityUsage],
    pools_in: impl Fn(usize) -> I,
) -> Option<(usize, usize)> {
    let select = |entities: &[EntityUsage]| select_victim_inner(entities, batch, !strict);
    match select(vms) {
        Some(vi) => {
            let pools: Vec<EntityUsage> = pools_in(vi).collect();
            let pi = select(&pools).or_else(|| {
                pools
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| e.used > 0)
                    .max_by_key(|(_, e)| e.used)
                    .map(|(i, _)| i)
            })?;
            Some((vi, pi))
        }
        None => {
            let mut victim = None;
            let mut best = 0;
            for vi in 0..vms.len() {
                for (pi, e) in pools_in(vi).enumerate() {
                    if e.used > best {
                        best = e.used;
                        victim = Some((vi, pi));
                    }
                }
            }
            victim
        }
    }
}

/// The two-level entitlement shares of one store (paper §4.2): every
/// participating VM's weight share of the store capacity, and every
/// participating pool's weight share of its VM's entitlement. A pure
/// function of capacity, weights and the participant set — usage is
/// never stored, so the table stays valid until one of those changes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShareTable {
    /// `(vm, entitlement, weight)` per participating VM, in `VmId` order.
    vm_rows: Vec<(VmId, u64, u64)>,
    /// Parallel to `vm_rows`: `(pool, entitlement, weight)` per
    /// participating pool of that VM, in `PoolId` order.
    pool_rows: Vec<Vec<(PoolId, u64, u64)>>,
}

impl ShareTable {
    /// Splits `capacity` over `participants`: one `(vm, weight, pools)`
    /// per VM in `VmId` order, `pools` holding the `(pool, weight)` of
    /// each pool of the VM that participates in the store (assigned to
    /// it by policy, or weight 0 while legacy objects remain), in
    /// `PoolId` order. A VM without participating pools takes no share.
    pub fn build(
        capacity: u64,
        participants: impl IntoIterator<Item = (VmId, u64, Vec<(PoolId, u64)>)>,
    ) -> ShareTable {
        let participants: Vec<_> = participants
            .into_iter()
            .filter(|(_, _, pools)| !pools.is_empty())
            .collect();
        let vm_weights: Vec<u64> = participants.iter().map(|&(_, w, _)| w).collect();
        let vm_shares = entitlements(capacity, &vm_weights);
        let mut table = ShareTable::default();
        for ((vm, weight, pools), vm_share) in participants.into_iter().zip(vm_shares) {
            let weights: Vec<u64> = pools.iter().map(|&(_, w)| w).collect();
            let shares = entitlements(vm_share, &weights);
            table.vm_rows.push((vm, vm_share, weight));
            table.pool_rows.push(
                pools
                    .into_iter()
                    .zip(shares)
                    .map(|((pool, w), share)| (pool, share, w))
                    .collect(),
            );
        }
        table
    }

    /// Every participating VM with its entitlement and its pools'
    /// `(pool, entitlement, weight)` rows, in `(VmId, PoolId)` order.
    pub fn rows(&self) -> impl Iterator<Item = (VmId, u64, &[(PoolId, u64, u64)])> + '_ {
        self.vm_rows
            .iter()
            .zip(&self.pool_rows)
            .map(|(&(vm, share, _), pools)| (vm, share, pools.as_slice()))
    }

    /// The entitlement of one pool in this store, in pages (0 when the
    /// pool does not participate).
    pub fn pool_entitlement(&self, vm: VmId, pool: PoolId) -> u64 {
        let Ok(vi) = self.vm_rows.binary_search_by_key(&vm, |r| r.0) else {
            return 0;
        };
        let rows = &self.pool_rows[vi];
        rows.binary_search_by_key(&pool, |r| r.0)
            .map_or(0, |pi| rows[pi].1)
    }

    /// The two-level victim walk: Algorithm 1 picks the victim VM, then
    /// the victim pool within it, for an eviction of `batch` pages;
    /// `used_of` reads a participating pool's current usage in the
    /// store and `strict` disables slack redistribution at both levels.
    ///
    /// So that a full store can always make progress, a level where
    /// Algorithm 1 finds nobody over its effective limit falls back to
    /// the largest user: within the victim VM the *last* co-largest
    /// pool, store-wide (no VM over) the *first* co-largest pool in
    /// `(VmId, PoolId)` order. `None` only when nothing is resident.
    ///
    /// Each level reads usage afresh. Shares sum exactly to the level
    /// above, so with steady usage — both engines hold it still for the
    /// walk — the in-VM fallback cannot trigger at all and the
    /// store-wide one needs a store at least `batch` pages short of
    /// full: pages freed after the allocation that sent the caller here
    /// failed, as by a racing flush.
    pub fn select_victim(
        &self,
        strict: bool,
        batch: u64,
        used_of: impl Fn(VmId, PoolId) -> u64,
    ) -> Option<(VmId, PoolId)> {
        let used_of = &used_of;
        let usage_in = |vi: usize| {
            let vm = self.vm_rows[vi].0;
            self.pool_rows[vi]
                .iter()
                .map(move |&(pool, share, weight)| {
                    EntityUsage::new(share, used_of(vm, pool), weight)
                })
        };
        let vms: Vec<EntityUsage> = self
            .vm_rows
            .iter()
            .enumerate()
            .map(|(vi, &(_, share, weight))| {
                EntityUsage::new(share, usage_in(vi).map(|e| e.used).sum(), weight)
            })
            .collect();
        let (vi, pi) = two_level_victim(strict, batch, &vms, usage_in)?;
        Some((self.vm_rows[vi].0, self.pool_rows[vi][pi].0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(entitlement: u64, used: u64, weight: u64) -> EntityUsage {
        EntityUsage::new(entitlement, used, weight)
    }

    #[test]
    fn empty_entity_list() {
        assert_eq!(select_victim(&[], 512), None);
    }

    #[test]
    fn no_overuse_no_victim() {
        let entities = [e(1000, 100, 50), e(1000, 200, 50)];
        assert_eq!(select_victim(&entities, 512), None);
    }

    #[test]
    fn single_overused_entity_is_victim() {
        let entities = [e(1000, 995, 50), e(1000, 100, 50)];
        assert_eq!(select_victim(&entities, 512), Some(0));
    }

    #[test]
    fn most_exceeding_entity_wins() {
        // Both over; the second exceeds by more.
        let entities = [e(1000, 1100, 50), e(1000, 1500, 50)];
        assert_eq!(select_victim(&entities, 512), Some(1));
    }

    #[test]
    fn redistribution_protects_heavier_weights() {
        // Two entities over their entitlement by the same amount, one
        // underused entity donating slack. The heavier-weight entity
        // receives more redistributed slack, so the lighter one has the
        // higher exceed value and is selected.
        let entities = [
            e(1000, 1400, 10), // light, over by 400
            e(1000, 1400, 90), // heavy, over by 400
            e(5000, 0, 50),    // underused donor (slack 5000 > 2*512)
        ];
        assert_eq!(select_victim(&entities, 512), Some(0));
    }

    #[test]
    fn small_slack_is_not_donated() {
        // Underused by less than 2 * eviction_size: not counted as slack.
        let eviction = 512;
        let entities = [
            e(1000, 1400, 50),
            e(1000, 900, 50), // under, but slack 100 < 1024
        ];
        // Only entity 0 is overused; victim regardless, but verify the
        // exceed math excludes the small slack.
        let v = exceed(entities[0], eviction, 0, 50);
        assert_eq!(v, 1400.0 + 512.0 - 1000.0);
        assert_eq!(select_victim(&entities, eviction), Some(0));
    }

    #[test]
    fn near_full_entity_counts_as_overused() {
        // entitlement >= used but entitlement < used + eviction_size:
        // the pending batch would push it over, so it is eviction-eligible.
        let entities = [e(1000, 900, 50), e(4000, 100, 50)];
        assert_eq!(select_victim(&entities, 512), Some(0));
    }

    #[test]
    fn tie_breaks_to_first() {
        let entities = [e(1000, 1200, 50), e(1000, 1200, 50)];
        assert_eq!(select_victim(&entities, 512), Some(0));
    }

    #[test]
    fn zero_weight_overused_entity() {
        // A zero-weight entity gets no redistribution and should be the
        // preferred victim over an equally-overused weighted entity.
        let entities = [
            e(0, 600, 0), // zero entitlement, zero weight
            e(1000, 1600, 100),
            e(5000, 0, 100), // donor
        ];
        // Overused = {0, 1}; cw = 0 + 100; b = 5000. The zero-weight
        // entity receives no redistributed slack, so it exceeds the most.
        let v = select_victim(&entities, 512);
        assert_eq!(v, Some(0));
        let cw = 100;
        let b = 5000;
        assert!(exceed(entities[0], 512, b, cw) > exceed(entities[1], 512, b, cw));
    }

    #[test]
    fn zero_weight_entity_actually_selected() {
        let entities = [e(0, 600, 0), e(1000, 1600, 100), e(5000, 0, 100)];
        // Recompute by hand: overused = {0, 1}, cw = 100, b = 5000.
        // exceed(0) = 600 + 512 - 0 - 0      = 1112
        // exceed(1) = 1600 + 512 - 1000 - 5000 = -3888
        assert_eq!(select_victim(&entities, 512), Some(0));
    }

    #[test]
    fn exceed_with_zero_cuml_weight_has_no_redistribution() {
        let v = exceed(e(100, 200, 10), 50, 1000, 0);
        assert_eq!(v, 200.0 + 50.0 - 100.0);
    }

    #[test]
    fn entitlements_sum_to_capacity() {
        for (cap, weights) in [
            (1000u64, vec![1u64, 1, 1]),
            (1024, vec![33, 67]),
            (999, vec![25, 75, 100]),
            (262_144, vec![40, 30, 30]),
            (7, vec![3, 3, 3]),
        ] {
            let shares = entitlements(cap, &weights);
            assert_eq!(shares.iter().sum::<u64>(), cap, "weights {weights:?}");
        }
    }

    #[test]
    fn entitlements_proportional() {
        let shares = entitlements(300, &[100, 200]);
        assert_eq!(shares, vec![100, 200]);
        let shares = entitlements(1000, &[60, 40]);
        assert_eq!(shares, vec![600, 400]);
    }

    #[test]
    fn entitlements_zero_weights() {
        assert_eq!(entitlements(1000, &[0, 0]), vec![0, 0]);
        assert_eq!(entitlements(1000, &[]), Vec::<u64>::new());
        let shares = entitlements(1000, &[0, 100]);
        assert_eq!(shares, vec![0, 1000]);
    }

    #[test]
    fn entitlements_remainder_goes_to_heaviest() {
        // 10 pages over weights 1,1,1: 3 each, remainder 1 to one of them.
        let shares = entitlements(10, &[1, 1, 1]);
        assert_eq!(shares.iter().sum::<u64>(), 10);
        assert!(shares.iter().all(|&s| s == 3 || s == 4));
    }

    /// Three single-pool VMs (`VmId(i)` owning `PoolId(10 + i)`) with
    /// the given weights over `capacity`.
    fn three_vms(capacity: u64, weights: [u64; 3]) -> ShareTable {
        ShareTable::build(
            capacity,
            (0..3).map(|i| (VmId(i), weights[i as usize], vec![(PoolId(10 + i), 100)])),
        )
    }

    #[test]
    fn share_table_splits_two_levels_and_skips_poolless_vms() {
        let table = ShareTable::build(
            8000,
            [
                (VmId(1), 100, vec![(PoolId(1), 25), (PoolId(2), 75)]),
                (VmId(2), 100, vec![]),
                (VmId(3), 300, vec![(PoolId(3), 0), (PoolId(4), 10)]),
            ],
        );
        let vms: Vec<(VmId, u64)> = table.rows().map(|(vm, share, _)| (vm, share)).collect();
        assert_eq!(vms, vec![(VmId(1), 2000), (VmId(3), 6000)]);
        assert_eq!(table.pool_entitlement(VmId(1), PoolId(1)), 500);
        assert_eq!(table.pool_entitlement(VmId(1), PoolId(2)), 1500);
        // A weight-0 (legacy) participant is listed but entitled to nothing.
        assert_eq!(table.pool_entitlement(VmId(3), PoolId(3)), 0);
        assert_eq!(table.pool_entitlement(VmId(3), PoolId(4)), 6000);
        assert_eq!(table.pool_entitlement(VmId(2), PoolId(9)), 0);
        assert_eq!(table.pool_entitlement(VmId(1), PoolId(4)), 0);
    }

    #[test]
    fn walk_picks_victim_vm_then_victim_pool() {
        let table = ShareTable::build(
            1000,
            [
                (VmId(1), 50, vec![(PoolId(1), 50), (PoolId(2), 50)]),
                (VmId(2), 50, vec![(PoolId(3), 100)]),
            ],
        );
        // VM 1 holds 700 of its 500; inside it pool 2 holds 600 of 250.
        let used = |_, pool: PoolId| [0, 100, 600, 300][pool.0 as usize];
        for strict in [false, true] {
            assert_eq!(
                table.select_victim(strict, 10, used),
                Some((VmId(1), PoolId(2)))
            );
        }
    }

    #[test]
    fn store_wide_fallback_takes_the_first_co_largest_pool() {
        // 64 pages over three equal VMs: 22/21/21. Nobody is over with a
        // zero-page batch, so the walk falls back to the largest user —
        // strict `>`, i.e. the first of the co-largest in id order.
        let table = three_vms(64, [1, 1, 1]);
        let used = |vm: VmId, _| [20, 21, 21][vm.0 as usize];
        for strict in [false, true] {
            assert_eq!(
                table.select_victim(strict, 0, used),
                Some((VmId(1), PoolId(11)))
            );
        }
    }

    #[test]
    fn in_vm_fallback_takes_the_last_co_largest_pool() {
        // VM 1 is entitled to 30 pages, 10 per pool. The VM pass (one
        // read per pool, four in all) sees it at 90 and picks it; by the
        // pool pass its usage has dropped to 10/10/5, so no pool is over
        // and the largest one goes — `max_by_key`, i.e. the last of the
        // co-largest.
        let table = ShareTable::build(
            90,
            [
                (
                    VmId(1),
                    1,
                    vec![(PoolId(1), 1), (PoolId(2), 1), (PoolId(3), 1)],
                ),
                (VmId(2), 2, vec![(PoolId(4), 1)]),
            ],
        );
        for strict in [false, true] {
            let reads = std::cell::Cell::new(0);
            let used = |_, pool: PoolId| {
                reads.set(reads.get() + 1);
                if reads.get() <= 4 {
                    30
                } else {
                    [0, 10, 10, 5][pool.0 as usize]
                }
            };
            assert_eq!(
                table.select_victim(strict, 0, used),
                Some((VmId(1), PoolId(2)))
            );
        }
    }

    #[test]
    fn nobody_over_and_everybody_empty_is_none() {
        let table = three_vms(64, [1, 1, 1]);
        for strict in [false, true] {
            assert_eq!(table.select_victim(strict, 0, |_, _| 0), None);
        }
        assert_eq!(
            ShareTable::default().select_victim(false, 512, |_, _| 7),
            None
        );
    }

    /// Seeded randomized cases (in-tree replacement for proptest, which
    /// is unavailable offline): deterministic, broad coverage.
    mod randomized {
        use super::*;
        use ddc_sim::SimRng;

        fn gen_entities(rng: &mut SimRng, lo: usize, hi: usize) -> Vec<EntityUsage> {
            (0..rng.range_usize(lo, hi))
                .map(|_| {
                    EntityUsage::new(
                        rng.range_u64(0, 10_000),
                        rng.range_u64(0, 10_000),
                        rng.range_u64(0, 100),
                    )
                })
                .collect()
        }

        #[test]
        fn entitlements_always_sum_to_capacity() {
            let mut rng = SimRng::new(0xB120);
            for case in 0..500 {
                let mut r = rng.fork(case);
                let cap = r.range_u64(0, 1_000_000);
                let weights: Vec<u64> = (0..r.range_usize(0, 8))
                    .map(|_| r.range_u64(0, 1000))
                    .collect();
                let shares = entitlements(cap, &weights);
                assert_eq!(shares.len(), weights.len());
                if weights.iter().sum::<u64>() == 0 {
                    assert!(shares.iter().all(|&s| s == 0));
                } else {
                    assert_eq!(shares.iter().sum::<u64>(), cap);
                }
            }
        }

        /// [`share_of`] is [`entitlements`], entity by entity, over
        /// weights with zeros, ties, one entity, all zeros, and
        /// `capacity × weight` past `u64::MAX`.
        #[test]
        fn one_share_is_its_entry_of_the_split() {
            let mut rng = SimRng::new(0xB124);
            for case in 0..2000 {
                let mut r = rng.fork(case);
                let len = r.range_usize(1, 7);
                let huge = case % 5 == 0;
                let capacity = match huge {
                    true => u64::MAX / r.range_u64(1, 4),
                    false => r.range_u64(0, 100_000),
                };
                let weights: Vec<u64> = (0..len)
                    .map(|_| match r.range_u64(0, 4) {
                        0 => 0,
                        1 => 40,
                        _ if huge => r.range_u64(1, u64::MAX / 8),
                        _ => r.range_u64(1, 300),
                    })
                    .collect();
                let split = entitlements(capacity, &weights);
                for (i, &want) in split.iter().enumerate() {
                    let got = share_of(capacity, weights.iter().copied(), i);
                    assert_eq!(got, want, "case {case}: {capacity} over {weights:?}, #{i}");
                }
            }
        }

        /// A source that reads differently on its second pass, as a
        /// legacy VM's usage cell can under a racing read: the share may
        /// be off, but nothing underflows or panics.
        #[test]
        fn a_weight_that_flips_between_passes_neither_underflows_nor_panics() {
            for (first, second) in [(0, 300), (300, 0), (1, u64::MAX / 4)] {
                for capacity in [0, 7, 1000, u64::MAX] {
                    let reads = std::cell::Cell::new(0);
                    let weights = (0..3).map(|j| match j {
                        1 => {
                            reads.set(reads.get() + 1);
                            if reads.get() == 1 {
                                first
                            } else {
                                second
                            }
                        }
                        _ => 100,
                    });
                    for i in [0, 2] {
                        reads.set(0);
                        let share = share_of(capacity, weights.clone(), i);
                        assert_eq!(reads.get(), 2, "one read per pass");
                        assert!(share <= capacity, "{share} of {capacity}");
                    }
                }
            }
        }

        #[test]
        fn zero_weight_gets_zero_share() {
            let mut rng = SimRng::new(0xB121);
            for case in 0..500 {
                let mut r = rng.fork(case);
                let cap = r.range_u64(1, 1_000_000);
                let w = r.range_u64(1, 1000);
                let shares = entitlements(cap, &[0, w, 0]);
                assert_eq!(shares[0], 0);
                assert_eq!(shares[2], 0);
                assert_eq!(shares[1], cap);
            }
        }

        #[test]
        fn victim_is_always_overused() {
            let mut rng = SimRng::new(0xB122);
            for case in 0..500 {
                let mut r = rng.fork(case);
                let entities = gen_entities(&mut r, 0, 10);
                let eviction = r.range_u64(1, 2048);
                if let Some(idx) = select_victim(&entities, eviction) {
                    let v = entities[idx];
                    assert!(
                        v.entitlement < v.used + eviction,
                        "victim must be in the overused list"
                    );
                } else {
                    // No victim => nobody is over the limit.
                    for e in &entities {
                        assert!(e.entitlement >= e.used + eviction);
                    }
                }
            }
        }

        #[test]
        fn victim_maximizes_exceed() {
            let mut rng = SimRng::new(0xB123);
            for case in 0..500 {
                let mut r = rng.fork(case);
                let entities = gen_entities(&mut r, 1, 10);
                let eviction = r.range_u64(1, 2048);
                if let Some(idx) = select_victim(&entities, eviction) {
                    // Recompute b and cw independently.
                    let mut cw = 0u64;
                    let mut b = 0u64;
                    for e in &entities {
                        if e.entitlement < e.used + eviction {
                            cw += e.weight;
                        }
                        if e.entitlement.saturating_sub(e.used) > 2 * eviction {
                            b += e.entitlement - e.used;
                        }
                    }
                    let chosen = exceed(entities[idx], eviction, b, cw);
                    for e in entities.iter() {
                        if e.entitlement < e.used + eviction {
                            assert!(exceed(*e, eviction, b, cw) <= chosen + 1e-9);
                        }
                    }
                }
            }
        }
    }
}
