//! The policy module's state, held once for both engines: which VMs are
//! registered with what weights, which pools each owns under what
//! policy, and the weights entitlements are read from.
//!
//! [`Registry`] is the table and [`Registry::apply`] its only mutator,
//! called live and on replay. "On any configuration change" (paper
//! §4.2) — every answer of `apply` but [`Control::Ignored`] — it
//! rebuilds one flat [`WeightTable`] per store; [`Registry::entitlement`]
//! and Algorithm 1's walk ([`Registry::victim`]) split the capacity,
//! read at the call, over it: the from-scratch [`ShareTable`], unbuilt.
//!
//! Usage enters a share one way only: a pool the policy does not assign
//! to the store joins it at weight 0 while it holds (legacy) pages
//! there. A zero weight moves no other share
//! ([`crate::policy::share_of`]), unless the pool's VM has no assigned
//! pool in the store: then its pages decide whether the VM takes a share
//! at all, and only then does an entitlement read touch a usage cell.
//! Each pool row, and the weight tables, share the pool's one [`Usage`]
//! cell, on both engines.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

use ddc_cleancache::{CachePolicy, PoolId, VmId};
use ddc_storage::{JournalRecord, RemoteError};

use crate::index::{Placement, Usage};
use crate::policy::{share_of, two_level_victim, EntityUsage, ShareTable};
use crate::{store_kind_from_code, EVICTION_BATCH_PAGES};

/// A VM's pools as `(pool, policy, usage)`, sorted by pool id.
pub type PoolRows = Vec<(PoolId, CachePolicy, Arc<Usage>)>;

/// One VM's row: its per-store weights and its pools.
#[derive(Clone, Debug)]
pub struct VmRow {
    /// Weight in the memory store.
    pub mem_weight: u64,
    /// Weight in the SSD store.
    pub ssd_weight: u64,
    /// The VM's pools.
    pub pools: PoolRows,
}

/// The control-plane registry (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Registry {
    vms: BTreeMap<VmId, VmRow>,
    /// The highest pool id ever registered (0, never minted: none yet).
    last_pool: u32,
    /// Per store (`[mem, ssd]`), the weights of `vms`.
    weights: [WeightTable; 2],
}

/// One store's weights, as the last [`Registry::apply`] that changed
/// the registry left them.
#[derive(Clone, Debug, Default)]
pub struct WeightTable {
    /// `(vm, weight, assigned, pools)` per VM with pools, in `VmId`
    /// order: whether its policy assigns any of its pools to the store,
    /// and where they sit in `pools`.
    vms: Vec<(VmId, u64, bool, Range<usize>)>,
    /// `(pool, weight, usage)` per pool of those VMs, in `(VmId,
    /// PoolId)` order: `None` for a pool the policy does not assign to
    /// the store, which joins it at weight 0 while it holds pages there.
    pools: Vec<PoolWeight>,
}

/// A pool of a [`WeightTable`]: `(pool, weight, usage)`.
type PoolWeight = (PoolId, Option<u64>, Arc<Usage>);

impl PartialEq for WeightTable {
    fn eq(&self, other: &WeightTable) -> bool {
        let pool = |p: &PoolWeight| (p.0, p.1, Arc::as_ptr(&p.2));
        self.vms == other.vms && self.pools.iter().map(pool).eq(other.pools.iter().map(pool))
    }
}

impl WeightTable {
    /// Refills the table with the weights of `vms` in one store, in the
    /// buffers it already has.
    fn fill(&mut self, vms: &BTreeMap<VmId, VmRow>, placement: Placement) {
        self.vms.clear();
        self.pools.clear();
        for (&vm, row) in vms.iter().filter(|(_, row)| !row.pools.is_empty()) {
            let start = self.pools.len();
            self.pools
                .extend(row.pools.iter().map(|(pool, policy, usage)| {
                    let weight = placement.allowed_by(policy.store).then_some(policy.weight);
                    (*pool, weight.map(u64::from), Arc::clone(usage))
                }));
            let assigned = self.pools[start..].iter().any(|p| p.1.is_some());
            let weight = [row.mem_weight, row.ssd_weight][placement.idx()];
            self.vms
                .push((vm, weight, assigned, start..self.pools.len()));
        }
    }

    /// The pools of the `v`th VM that take part in the store: the
    /// assigned ones, and the others while they hold pages there.
    fn joined(&self, v: usize, placement: Placement) -> impl Iterator<Item = &PoolWeight> + Clone {
        let pools = self.pools[self.vms[v].3.clone()].iter();
        pools.filter(move |p| p.1.is_some() || p.2.pages(placement) > 0)
    }
}

/// What a control record, once applied to the registry, leaves for the
/// engine to do to its pools.
#[derive(Clone, Debug)]
pub enum Control {
    /// Not a registry record, or one that names a VM, pool or store
    /// kind that does not exist: nothing changed.
    Ignored,
    /// A VM row was upserted; no pool is affected.
    Weights,
    /// These pools of one VM left the registry: destroy them.
    Drain(VmId, Vec<PoolId>),
    /// This pool was registered under this policy: create it on its
    /// new row's cell.
    Install(VmId, PoolId, CachePolicy, Arc<Usage>),
    /// This pool's row carries a new policy: give it to the pool.
    Swap(VmId, PoolId, CachePolicy),
}

impl Registry {
    /// Every VM row, in `VmId` order.
    pub fn vms(&self) -> impl Iterator<Item = (VmId, &VmRow)> + '_ {
        self.vms.iter().map(|(&vm, row)| (vm, row))
    }

    /// One VM's row.
    pub fn vm(&self, vm: VmId) -> Option<&VmRow> {
        self.vms.get(&vm)
    }

    /// One pool's `(id, policy, usage)`.
    pub fn pool(&self, vm: VmId, pool: PoolId) -> Option<&(PoolId, CachePolicy, Arc<Usage>)> {
        let pools = &self.vms.get(&vm)?.pools;
        let i = pools.binary_search_by_key(&pool, |r| r.0).ok()?;
        Some(&pools[i])
    }

    /// Whether a remote may be bound to this pool, or the typed error
    /// naming what is not registered.
    pub fn bind_target(&self, vm: VmId, pool: PoolId) -> Result<(), RemoteError> {
        let unknown_pool = || RemoteError::UnknownPool {
            vm: vm.0,
            pool: pool.0,
        };
        match self.pool(vm, pool) {
            Some(_) => Ok(()),
            None if self.vms.contains_key(&vm) => Err(unknown_pool()),
            None => Err(RemoteError::UnknownVm(vm.0)),
        }
    }

    /// One registered pool as its VM's pool list and its index there.
    fn row_mut(&mut self, vm: VmId, pool: PoolId) -> Option<(&mut PoolRows, usize)> {
        let pools = &mut self.vms.get_mut(&vm)?.pools;
        let i = pools.binary_search_by_key(&pool, |r| r.0).ok()?;
        Some((pools, i))
    }

    /// Every registered pool, in `(VmId, PoolId)` order.
    pub fn pool_ids(&self) -> impl Iterator<Item = (VmId, PoolId)> + '_ {
        self.vms()
            .flat_map(|(vm, row)| row.pools.iter().map(move |r| (vm, r.0)))
    }

    /// The id the next live `create_pool` mints.
    pub fn next_pool(&self) -> PoolId {
        PoolId(self.last_pool.saturating_add(1))
    }

    /// Applies the registry half of one control record, live or
    /// replayed; a pool row that did not exist gets a fresh cell. Every
    /// answer a replay needs is decided here, once:
    /// `AddVm` and `SetVmWeights` both upsert (re-registering updates
    /// the weights, and weights for a VM whose `AddVm` an image lost
    /// register it); a `CreatePool` for an unknown VM registers it at
    /// 100/100, so single-VM setups need no `AddVm`, and one for an id
    /// already registered is a policy swap (the pool keeps its pages);
    /// records that name nothing registered are ignored. Every other
    /// answer rebuilds both stores' weight tables.
    pub fn apply(&mut self, rec: &JournalRecord) -> Control {
        let control = self.transition(rec);
        if !matches!(control, Control::Ignored) {
            for placement in Placement::ALL {
                self.weights[placement.idx()].fill(&self.vms, placement);
            }
        }
        control
    }

    /// [`Self::apply`] without the weights.
    fn transition(&mut self, rec: &JournalRecord) -> Control {
        let vm_row = |mem_weight, ssd_weight| VmRow {
            mem_weight,
            ssd_weight,
            pools: Vec::new(),
        };
        match *rec {
            JournalRecord::AddVm {
                vm,
                mem_weight,
                ssd_weight,
            }
            | JournalRecord::SetVmWeights {
                vm,
                mem_weight,
                ssd_weight,
            } => {
                let row = self.vms.entry(VmId(vm)).or_insert_with(|| vm_row(0, 0));
                (row.mem_weight, row.ssd_weight) = (mem_weight, ssd_weight);
                Control::Weights
            }
            JournalRecord::RemoveVm { vm } => match self.vms.remove(&VmId(vm)) {
                Some(row) => Control::Drain(VmId(vm), row.pools.iter().map(|r| r.0).collect()),
                None => Control::Ignored,
            },
            JournalRecord::CreatePool {
                vm,
                pool,
                store,
                weight,
            } => {
                let Some(store) = store_kind_from_code(store) else {
                    return Control::Ignored;
                };
                let (vm, pool, policy) = (VmId(vm), PoolId(pool), CachePolicy { store, weight });
                let pools = &mut self.vms.entry(vm).or_insert_with(|| vm_row(100, 100)).pools;
                self.last_pool = self.last_pool.max(pool.0);
                // Live ids are minted monotonically (the row goes
                // last); a replayed id may sit anywhere.
                match pools.binary_search_by_key(&pool, |r| r.0) {
                    Ok(i) => {
                        pools[i].1 = policy;
                        Control::Swap(vm, pool, policy)
                    }
                    Err(i) => {
                        let usage = Arc::<Usage>::default();
                        pools.insert(i, (pool, policy, Arc::clone(&usage)));
                        Control::Install(vm, pool, policy, usage)
                    }
                }
            }
            JournalRecord::DestroyPool { vm, pool } => {
                let (vm, pool) = (VmId(vm), PoolId(pool));
                match self.row_mut(vm, pool) {
                    Some((pools, i)) => Control::Drain(vm, vec![pools.remove(i).0]),
                    None => Control::Ignored,
                }
            }
            JournalRecord::SetPolicy {
                vm,
                pool,
                store,
                weight,
            } => {
                let (vm, pool) = (VmId(vm), PoolId(pool));
                match (self.row_mut(vm, pool), store_kind_from_code(store)) {
                    (Some((pools, i)), Some(store)) => {
                        pools[i].1 = CachePolicy { store, weight };
                        Control::Swap(vm, pool, pools[i].1)
                    }
                    _ => Control::Ignored,
                }
            }
            JournalRecord::Put { .. }
            | JournalRecord::Take { .. }
            | JournalRecord::Evict { .. }
            | JournalRecord::Flush { .. }
            | JournalRecord::FlushFile { .. }
            | JournalRecord::Epoch { .. }
            | JournalRecord::SetMode { .. }
            | JournalRecord::SetMemCapacity { .. }
            | JournalRecord::SetSsdCapacity { .. }
            | JournalRecord::SsdDrain
            | JournalRecord::WearTotals { .. } => Control::Ignored,
        }
    }

    /// Whether the weight table [`Self::apply`] keeps for this store is
    /// the one the rows give now (auditor use).
    pub(crate) fn weights_current(&self, placement: Placement) -> bool {
        let mut fresh = WeightTable::default();
        fresh.fill(&self.vms, placement);
        self.weights[placement.idx()] == fresh
    }

    /// One pool's entitlement in a store of `capacity` pages, split at
    /// both levels over the kept weights (see the [module docs](self));
    /// 0 for a pool that is not registered or not assigned to the store.
    pub fn entitlement(&self, vm: VmId, pool: PoolId, placement: Placement, capacity: u64) -> u64 {
        let table = &self.weights[placement.idx()];
        let Ok(v) = table.vms.binary_search_by_key(&vm, |r| r.0) else {
            return 0;
        };
        let pools = &table.pools[table.vms[v].3.clone()];
        match pools.binary_search_by_key(&pool, |p| p.0) {
            Ok(i) if pools[i].1.is_some() => {
                // A VM that takes no part splits the store at weight 0.
                let joins =
                    |u: usize| table.vms[u].2 || table.joined(u, placement).next().is_some();
                let vm_weights = (0..table.vms.len()).map(|u| table.vms[u].1 * u64::from(joins(u)));
                let vm_share = share_of(capacity, vm_weights, v);
                share_of(vm_share, pools.iter().map(|p| p.1.unwrap_or(0)), i)
            }
            _ => 0,
        }
    }

    /// Algorithm 1's victim `(vm, pool)` in a store of `capacity` pages
    /// ([`ShareTable::select_victim`]'s walk over the kept weights and
    /// the pools' cells), for both engines' weighted eviction.
    pub fn victim(
        &self,
        placement: Placement,
        capacity: u64,
        strict: bool,
    ) -> Option<(VmId, PoolId)> {
        let table = &self.weights[placement.idx()];
        let used = |p: &PoolWeight| p.2.pages(placement);
        // The VMs that take part; `vms[k]` is the `k`th of them.
        let joined_vms =
            || (0..table.vms.len()).filter(|&v| table.joined(v, placement).next().is_some());
        let nth_vm = |k| joined_vms().nth(k).expect("k indexes vms");
        let mut vms = Vec::with_capacity(joined_vms().count());
        vms.extend(joined_vms().enumerate().map(|(k, v)| {
            let share = share_of(capacity, joined_vms().map(|v| table.vms[v].1), k);
            let used = table.joined(v, placement).map(used).sum();
            EntityUsage::new(share, used, table.vms[v].1)
        }));
        let vms = &vms;
        let pools_in = |k: usize| {
            let pools = table.joined(nth_vm(k), placement);
            let weights = pools.clone().map(|p| p.1.unwrap_or(0));
            pools.enumerate().map(move |(j, p)| {
                let share = share_of(vms[k].entitlement, weights.clone(), j);
                EntityUsage::new(share, used(p), p.1.unwrap_or(0))
            })
        };
        let (k, j) = two_level_victim(strict, EVICTION_BATCH_PAGES, vms, pools_in)?;
        let v = nth_vm(k);
        Some((table.vms[v].0, table.joined(v, placement).nth(j)?.0))
    }

    /// One store's share table built from scratch over the rows, through
    /// the policy module's one builder. A pool participates if its
    /// policy assigns it to the store, or — at weight 0 — while its cell
    /// shows legacy pages there.
    pub fn share_table(&self, capacity: u64, placement: Placement) -> ShareTable {
        ShareTable::build(
            capacity,
            self.vms().map(|(vm, row)| {
                let pools = row.pools.iter().filter_map(|(pid, policy, usage)| {
                    if placement.allowed_by(policy.store) {
                        Some((*pid, u64::from(policy.weight)))
                    } else {
                        (usage.pages(placement) > 0).then_some((*pid, 0))
                    }
                });
                let weight = [row.mem_weight, row.ssd_weight][placement.idx()];
                (vm, weight, pools.collect())
            }),
        )
    }

    /// Skews one store's kept weights behind [`Self::apply`]'s back (the
    /// first VM's weight doubles and one more), so tests can show the
    /// auditor notices.
    #[cfg(test)]
    pub(crate) fn skew_weights(&mut self, placement: Placement) {
        let row = &mut self.weights[placement.idx()].vms[0];
        row.1 = row.1 * 2 + 1;
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use ddc_cleancache::PageVersion;
    use ddc_sim::SimRng;
    use ddc_storage::{BlockAddr, FileId};

    use super::*;
    use crate::index::Pool;

    /// A seeded control record over a small id space: mostly records a
    /// live engine would write, plus the hostile-but-valid ones a replay
    /// can meet — `CreatePool` for a VM nobody registered or with an id
    /// below the next one to mint (or already taken), weights, policies,
    /// destroys and removals for ids that do not exist (so also
    /// `RemoveVm` twice), a store code no version wrote.
    fn arbitrary_control(rng: &mut SimRng, next_pool: u32) -> JournalRecord {
        let vm = rng.range_u64(1, 6) as u32;
        let pool = if rng.chance(0.5) {
            next_pool
        } else {
            rng.range_u64(1, u64::from(next_pool) + 3) as u32
        };
        let store = if rng.chance(0.05) {
            7
        } else {
            rng.range_u64(0, 3) as u8
        };
        let weight = [0, 40, 100, 250][rng.range_usize(0, 4)];
        let (mem_weight, ssd_weight) = (rng.range_u64(0, 4) * 75, rng.range_u64(0, 4) * 60);
        match rng.range_u64(0, 10) {
            0 => JournalRecord::AddVm {
                vm,
                mem_weight,
                ssd_weight,
            },
            1 => JournalRecord::SetVmWeights {
                vm,
                mem_weight,
                ssd_weight,
            },
            2 => JournalRecord::RemoveVm { vm },
            3..=5 => JournalRecord::CreatePool {
                vm,
                pool,
                store,
                weight,
            },
            6 => JournalRecord::DestroyPool { vm, pool },
            _ => JournalRecord::SetPolicy {
                vm,
                pool,
                store,
                weight,
            },
        }
    }

    /// What [`Registry::apply`] must do, on plain maps: `(weights, pool →
    /// (policy, the step whose record made its cell))` per VM and the
    /// highest id seen.
    type Model = BTreeMap<u32, ((u64, u64), BTreeMap<u32, (CachePolicy, u32)>)>;

    fn model_apply(model: &mut Model, last: &mut u32, rec: &JournalRecord, fresh: u32) {
        let policy = |store, weight| Some(CachePolicy::new(store_kind_from_code(store)?, weight));
        match *rec {
            JournalRecord::AddVm {
                vm,
                mem_weight,
                ssd_weight,
            }
            | JournalRecord::SetVmWeights {
                vm,
                mem_weight,
                ssd_weight,
            } => model.entry(vm).or_default().0 = (mem_weight, ssd_weight),
            JournalRecord::RemoveVm { vm } => drop(model.remove(&vm)),
            JournalRecord::CreatePool {
                vm,
                pool,
                store,
                weight,
            } => {
                if let Some(policy) = policy(store, weight) {
                    let row = model.entry(vm).or_insert(((100, 100), BTreeMap::new()));
                    row.1.entry(pool).or_insert((policy, fresh)).0 = policy;
                    *last = (*last).max(pool);
                }
            }
            JournalRecord::DestroyPool { vm, pool } => {
                model.get_mut(&vm).map(|row| row.1.remove(&pool));
            }
            JournalRecord::SetPolicy {
                vm,
                pool,
                store,
                weight,
            } => {
                let slot = model.get_mut(&vm).and_then(|row| row.1.get_mut(&pool));
                if let (Some(slot), Some(policy)) = (slot, policy(store, weight)) {
                    slot.0 = policy;
                }
            }
            _ => unreachable!("not a control record"),
        }
    }

    /// The registry as a [`Model`]: each row's cell named by the step of
    /// the `Install` answer that handed it out (`u32::MAX`: none did).
    fn flatten(registry: &Registry, cells: &[(u32, Arc<Usage>)]) -> Model {
        let made = |usage: &Arc<Usage>| {
            let cell = cells.iter().find(|c| Arc::ptr_eq(&c.1, usage));
            cell.map_or(u32::MAX, |c| c.0)
        };
        let rows = registry.vms().map(|(vm, row)| {
            let pools = row
                .pools
                .iter()
                .map(|(p, policy, u)| (p.0, (*policy, made(u))));
            (vm.0, ((row.mem_weight, row.ssd_weight), pools.collect()))
        });
        rows.collect()
    }

    /// A [`Control`] with its cell named as [`flatten`] names it.
    #[derive(Debug, PartialEq)]
    enum Answer {
        Ignored,
        Weights,
        Drain(VmId, Vec<PoolId>),
        Install(VmId, PoolId, CachePolicy, u32),
        Swap(VmId, PoolId, CachePolicy),
    }

    fn answer(control: &Control, step: u32) -> Answer {
        match control {
            Control::Ignored => Answer::Ignored,
            Control::Weights => Answer::Weights,
            Control::Drain(vm, pools) => Answer::Drain(*vm, pools.clone()),
            Control::Install(vm, pool, policy, _) => Answer::Install(*vm, *pool, *policy, step),
            Control::Swap(vm, pool, policy) => Answer::Swap(*vm, *pool, *policy),
        }
    }

    #[test]
    fn apply_matches_a_map_model_over_hostile_control_sequences() {
        for seed in 0..24 {
            let mut rng = SimRng::new(0x5E61 + seed);
            let (mut registry, mut model, mut last) = (Registry::default(), Model::new(), 0);
            // Every cell an `Install` answer handed out, with its step.
            let mut cells = Vec::new();
            for step in 0..400u32 {
                let rec = arbitrary_control(&mut rng, last + 1);
                let before = model.clone();
                model_apply(&mut model, &mut last, &rec, step);
                let control = registry.apply(&rec);
                if let Control::Install(.., usage) = &control {
                    cells.push((step, Arc::clone(usage)));
                }
                // Each row carries the cell its `Install` answer handed
                // out, and keeps it through every swap (a second
                // `CreatePool` included).
                assert_eq!(
                    flatten(&registry, &cells),
                    model,
                    "seed {seed} step {step} {rec:?}"
                );
                assert_eq!(registry.next_pool(), PoolId(last + 1));
                // The pools the record took away, and the one it gave
                // (with its new cell) or changed, are what the engine is
                // told.
                let pools_of = |m: &Model| -> Vec<(u32, u32, CachePolicy, u32)> {
                    let rows = m.iter();
                    rows.flat_map(|(&vm, row)| row.1.iter().map(move |(&p, &(c, m))| (vm, p, c, m)))
                        .collect()
                };
                let (was, is) = (pools_of(&before), pools_of(&model));
                let gone: Vec<_> = was.iter().filter(|r| !is.contains(r)).collect();
                let want = match rec {
                    JournalRecord::AddVm { .. } | JournalRecord::SetVmWeights { .. } => {
                        Answer::Weights
                    }
                    JournalRecord::RemoveVm { vm } if before.contains_key(&vm) => {
                        Answer::Drain(VmId(vm), gone.iter().map(|r| PoolId(r.1)).collect())
                    }
                    JournalRecord::DestroyPool { vm, .. } if !gone.is_empty() => {
                        Answer::Drain(VmId(vm), vec![PoolId(gone[0].1)])
                    }
                    JournalRecord::CreatePool {
                        vm, pool, store, ..
                    } if store < 3 => {
                        let (policy, made) = model[&vm].1[&pool];
                        let known = before.get(&vm).is_some_and(|r| r.1.contains_key(&pool));
                        if known {
                            Answer::Swap(VmId(vm), PoolId(pool), policy)
                        } else {
                            Answer::Install(VmId(vm), PoolId(pool), policy, made)
                        }
                    }
                    JournalRecord::SetPolicy {
                        vm, pool, store, ..
                    } if store < 3 && before.get(&vm).is_some_and(|r| r.1.contains_key(&pool)) => {
                        Answer::Swap(VmId(vm), PoolId(pool), model[&vm].1[&pool].0)
                    }
                    _ => Answer::Ignored,
                };
                assert_eq!(
                    answer(&control, step),
                    want,
                    "seed {seed} step {step} {rec:?}"
                );
                // Both stores' weights are the rows' after every
                // record, and `Ignored` changed nothing.
                assert!(Placement::ALL.iter().all(|&p| registry.weights_current(p)));
                assert!(!matches!(control, Control::Ignored) || model == before);
            }
        }
        // An id at the top of the range does not wrap the mint.
        let mut registry = Registry::default();
        let (vm, pool, store, weight) = (1, u32::MAX, 0, 100);
        registry.apply(&JournalRecord::CreatePool {
            vm,
            pool,
            store,
            weight,
        });
        assert_eq!(registry.next_pool(), PoolId(u32::MAX));
        let ignored = registry.apply(&JournalRecord::SsdDrain);
        assert!(matches!(ignored, Control::Ignored));
    }

    /// `ShareTable::build` over the registry's rows and the true usage,
    /// written out here so the oracle shares nothing with
    /// [`Registry::share_table`].
    fn from_scratch(
        registry: &Registry,
        capacity: u64,
        placement: Placement,
        usage: &BTreeMap<(VmId, PoolId), [u64; 2]>,
    ) -> ShareTable {
        let participants = registry.vms().map(|(vm, row)| {
            let weight = [row.mem_weight, row.ssd_weight][placement.idx()];
            let pools = row.pools.iter().filter_map(|&(pool, policy, _)| {
                let used = usage.get(&(vm, pool)).map_or(0, |u| u[placement.idx()]);
                match placement.allowed_by(policy.store) {
                    true => Some((pool, u64::from(policy.weight))),
                    false => (used > 0).then_some((pool, 0)),
                }
            });
            (vm, weight, pools.collect())
        });
        ShareTable::build(capacity, participants)
    }

    /// Puts or takes pages of `pool` in one store until it holds `pages`
    /// there, the way an engine moves a pool's usage.
    fn hold(pool: &mut Pool, placement: Placement, pages: u64) {
        let addr = |block| BlockAddr::new(FileId(placement.idx() as u64), block);
        while pool.used(placement) < pages {
            let block = pool.used(placement);
            pool.insert(addr(block), placement, PageVersion(1), block);
        }
        while pool.used(placement) > pages {
            pool.remove(addr(pool.used(placement) - 1));
        }
    }

    /// The kept weights against a from-scratch build after every step
    /// of a seeded stream that changes each input of a share on its
    /// own: registry records (weights, policy store and weight, pool
    /// create / destroy, VM removal), capacity (a resize of either
    /// store), and a legacy pool's usage crossing zero in either
    /// direction, written by a pool built on its row's cell, as both
    /// engines' pools are. After every step, in both stores, every
    /// registered pool's entitlement and one unregistered id's, and
    /// Algorithm 1's victim in either mode, are the from-scratch
    /// table's.
    #[test]
    fn weight_tables_equal_a_from_scratch_build_after_every_step() {
        let mut rng = SimRng::new(0x3E30);
        let mut registry = Registry::default();
        let mut pools: BTreeMap<(VmId, PoolId), Pool> = BTreeMap::new();
        let mut usage: BTreeMap<(VmId, PoolId), [u64; 2]> = BTreeMap::new();
        let mut pages = [400u64, 900];
        let (mut crossings, mut legacy_vms) = (0, 0);
        for step in 0..4000 {
            let ids: Vec<(VmId, PoolId)> = registry.pool_ids().collect();
            match rng.range_u64(0, 10) {
                0..=2 => {
                    let rec = arbitrary_control(&mut rng, registry.next_pool().0);
                    match registry.apply(&rec) {
                        Control::Install(vm, pool, policy, cell) => {
                            pools.insert((vm, pool), Pool::on(vm, policy, cell));
                        }
                        Control::Drain(vm, gone) => {
                            for pool in gone {
                                pools.remove(&(vm, pool));
                                usage.remove(&(vm, pool));
                            }
                        }
                        _ => {}
                    }
                }
                3 | 4 => pages[rng.range_usize(0, 2)] = rng.range_u64(0, 5) * 300,
                _ if !ids.is_empty() => {
                    // Mostly to and from zero: that is what moves a
                    // legacy pool in and out of a store.
                    let (vm, pool) = ids[rng.range_usize(0, ids.len())];
                    let store = rng.range_usize(0, 2);
                    let used = [0, 0, 1, 7][rng.range_usize(0, 4)];
                    let old =
                        std::mem::replace(&mut usage.entry((vm, pool)).or_default()[store], used);
                    crossings += u64::from((old == 0) != (used == 0));
                    let pool = pools.get_mut(&(vm, pool)).expect("every row has its pool");
                    hold(pool, Placement::ALL[store], used);
                }
                _ => {}
            }
            let mut legacy_vm = false;
            for placement in [Placement::Mem, Placement::Ssd] {
                let capacity = pages[placement.idx()];
                let want = from_scratch(&registry, capacity, placement, &usage);
                let unregistered = (VmId(3), PoolId(u32::MAX));
                for (vm, pool) in registry.pool_ids().chain([unregistered]) {
                    let got = registry.entitlement(vm, pool, placement, capacity);
                    let what = format!("step {step}, {placement:?}, {vm} {pool}");
                    assert_eq!(got, want.pool_entitlement(vm, pool), "{what}");
                }
                let used_of = |vm, pool| usage.get(&(vm, pool)).map_or(0, |u| u[placement.idx()]);
                for strict in [false, true] {
                    let got = registry.victim(placement, capacity, strict);
                    let victim = want.select_victim(strict, EVICTION_BATCH_PAGES, used_of);
                    assert_eq!(got, victim, "step {step}, {placement:?}, strict {strict}");
                }
                // A VM none of whose pools the policy assigns to this
                // store, holding pages there: it takes a share of the
                // store from every other VM.
                legacy_vm |= registry.vms().any(|(vm, row)| {
                    let assigned = |r: &(PoolId, CachePolicy, _)| placement.allowed_by(r.1.store);
                    !row.pools.iter().any(assigned)
                        && row.pools.iter().any(|r| used_of(vm, r.0) > 0)
                });
            }
            legacy_vms += u64::from(legacy_vm);
        }
        // The stream did move legacy pools in and out of the stores.
        assert!(crossings > 300, "{crossings} zero crossings");
        assert!(
            legacy_vms >= 100,
            "{legacy_vms} steps with a VM holding pages only outside its policy's stores"
        );
    }
}
