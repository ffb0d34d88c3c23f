//! The policy module's state, held once for both engines: which VMs are
//! registered with what weights, which pools each owns under what
//! policy, and the share tables derived from them.
//!
//! [`Registry`] is the table, [`Registry::apply`] its only mutator — one
//! transition per control record, called live and on replay — and
//! [`ShareMemo`] the memoized [`ShareTable`] per store. A share table
//! has exactly three inputs: the registry's contents, the store's
//! capacity, and which pools the policy does *not* assign to the store
//! still hold pages there (usage enters nowhere else). The memo keeps
//! what it saw of each and re-checks all three on every use, so its
//! answer is the from-scratch table, minus the allocations and the
//! fair-share division. The registry's contents are checked by version:
//! [`Registry::apply`] moves [`Registry::version`] on every answer but
//! [`Control::Ignored`], and a memo is only read by a holder of the
//! registry (the sharded engine's read lock), so the version cannot move
//! under it.
//!
//! `M` is what an engine hangs on a pool's row: nothing for the serial
//! engine, the pool's lock-free usage mirror for the sharded one. It is
//! also the memo's probe — a legacy pool's usage is asked of its row
//! payload, so the sharded re-check is two atomic loads per legacy pool
//! and the serial one a pool-map lookup.

use std::collections::BTreeMap;

use ddc_cleancache::{CachePolicy, PoolId, VmId};
use ddc_storage::{JournalRecord, RemoteError};

use crate::index::Placement;
use crate::policy::ShareTable;
use crate::store_kind_from_code;

/// A VM's pools as `(pool, policy, payload)`, sorted by pool id.
pub type PoolRows<M> = Vec<(PoolId, CachePolicy, M)>;

/// One VM's row: its per-store weights and its pools.
#[derive(Clone, Debug)]
pub struct VmRow<M> {
    /// Weight in the memory store.
    pub mem_weight: u64,
    /// Weight in the SSD store.
    pub ssd_weight: u64,
    /// The VM's pools.
    pub pools: PoolRows<M>,
}

/// The control-plane registry (see the [module docs](self)).
#[derive(Clone, Debug, Default)]
pub struct Registry<M> {
    vms: BTreeMap<VmId, VmRow<M>>,
    /// The highest pool id ever registered (0, never minted: none yet).
    last_pool: u32,
    /// How many records changed the registry (see [`Self::version`]).
    version: u64,
}

/// What a control record, once applied to the registry, leaves for the
/// engine to do to its pools.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Control<M> {
    /// Not a registry record, or one that names a VM, pool or store
    /// kind that does not exist: nothing changed.
    Ignored,
    /// A VM row was upserted; no pool is affected.
    Weights,
    /// These pools of one VM left the registry, each with the payload
    /// its row carried: destroy them.
    Drain(VmId, Vec<(PoolId, M)>),
    /// This pool was registered under this policy: create it, wired to
    /// its new row's payload.
    Install(VmId, PoolId, CachePolicy, M),
    /// This pool's row carries a new policy: give it to the pool.
    Swap(VmId, PoolId, CachePolicy),
}

impl<M: Clone> Registry<M> {
    /// Every VM row, in `VmId` order.
    pub fn vms(&self) -> impl Iterator<Item = (VmId, &VmRow<M>)> + '_ {
        self.vms.iter().map(|(&vm, row)| (vm, row))
    }

    /// One VM's row.
    pub fn vm(&self, vm: VmId) -> Option<&VmRow<M>> {
        self.vms.get(&vm)
    }

    /// One pool's `(id, policy, payload)`.
    pub fn pool(&self, vm: VmId, pool: PoolId) -> Option<&(PoolId, CachePolicy, M)> {
        let pools = &self.vms.get(&vm)?.pools;
        let i = pools.binary_search_by_key(&pool, |r| r.0).ok()?;
        Some(&pools[i])
    }

    /// The payload of the pool a remote is about to be bound to, or the
    /// typed error naming what is not registered.
    pub fn bind_target(&self, vm: VmId, pool: PoolId) -> Result<&M, RemoteError> {
        let unknown_pool = || RemoteError::UnknownPool {
            vm: vm.0,
            pool: pool.0,
        };
        match self.pool(vm, pool) {
            Some(row) => Ok(&row.2),
            None if self.vms.contains_key(&vm) => Err(unknown_pool()),
            None => Err(RemoteError::UnknownVm(vm.0)),
        }
    }

    /// One registered pool as its VM's pool list and its index there.
    fn row_mut(&mut self, vm: VmId, pool: PoolId) -> Option<(&mut PoolRows<M>, usize)> {
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

    /// The registry's version: moved by every [`Self::apply`] whose
    /// answer is not [`Control::Ignored`] (a record that names nothing
    /// changed nothing, so no memo is retired over it). The version a
    /// [`ShareMemo`] is validated against.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Applies the registry half of one control record, live or
    /// replayed; `new_row` makes the payload of a pool row that did not
    /// exist. Every answer a replay needs is decided here, once:
    /// `AddVm` and `SetVmWeights` both upsert (re-registering updates
    /// the weights, and weights for a VM whose `AddVm` an image lost
    /// register it); a `CreatePool` for an unknown VM registers it at
    /// 100/100, so single-VM setups need no `AddVm`, and one for an id
    /// already registered is a policy swap (the pool keeps its pages);
    /// records that name nothing registered are ignored. Every other
    /// answer moves [`Self::version`].
    pub fn apply(&mut self, rec: &JournalRecord, new_row: impl FnOnce() -> M) -> Control<M> {
        let control = self.transition(rec, new_row);
        if !matches!(control, Control::Ignored) {
            self.version += 1;
        }
        control
    }

    /// [`Self::apply`] without the version.
    fn transition(&mut self, rec: &JournalRecord, new_row: impl FnOnce() -> M) -> Control<M> {
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
                Some(row) => {
                    let pools = row.pools.into_iter().map(|(p, _, m)| (p, m));
                    Control::Drain(VmId(vm), pools.collect())
                }
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
                        let row = new_row();
                        pools.insert(i, (pool, policy, row.clone()));
                        Control::Install(vm, pool, policy, row)
                    }
                }
            }
            JournalRecord::DestroyPool { vm, pool } => {
                let (vm, pool) = (VmId(vm), PoolId(pool));
                match self.row_mut(vm, pool) {
                    Some((pools, i)) => Control::Drain(vm, vec![(pool, pools.remove(i).2)]),
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

    /// One store's share table over this registry, through the policy
    /// module's one builder. A pool participates if its policy assigns
    /// it to the store, or — at weight 0 — while it still holds legacy
    /// pages there; `legacy_used` is asked about exactly the pools the
    /// policy does not assign.
    pub fn share_table(
        &self,
        capacity: u64,
        placement: Placement,
        mut legacy_used: impl FnMut(VmId, PoolId, &M) -> u64,
    ) -> ShareTable {
        ShareTable::build(
            capacity,
            self.vms().map(|(vm, row)| {
                let mut pools = Vec::new();
                for (pid, policy, payload) in &row.pools {
                    if placement.allowed_by(policy.store) {
                        pools.push((*pid, u64::from(policy.weight)));
                    } else if legacy_used(vm, *pid, payload) > 0 {
                        pools.push((*pid, 0));
                    }
                }
                let weight = match placement {
                    Placement::Mem => row.mem_weight,
                    Placement::Ssd => row.ssd_weight,
                };
                (vm, weight, pools)
            }),
        )
    }
}

/// Memoized share tables, one per store, valid by construction: see the
/// [module docs](self) for the rule and why it is exact.
#[derive(Clone, Debug, Default)]
pub struct ShareMemo<M> {
    /// The registry version the tables were built under.
    version: u64,
    /// Per store (`[mem, ssd]`), lazily built.
    tables: [Option<StoreMemo<M>>; 2],
}

#[derive(Clone, Debug)]
struct StoreMemo<M> {
    /// Store capacity the shares were split over.
    capacity: u64,
    shares: ShareTable,
    /// Every pool the policy does *not* assign to this store, and
    /// whether it participated (held legacy pages) at build time, in
    /// registry order. A flip in any of these is the only way usage
    /// can change the table.
    legacy: Vec<(VmId, PoolId, M, bool)>,
}

impl<M: Clone> ShareMemo<M> {
    /// The memoized table for one store, if it is filled and its three
    /// inputs still read as they did when it was built.
    pub fn cached(
        &self,
        version: u64,
        capacity: u64,
        placement: Placement,
        legacy_used: impl Fn(VmId, PoolId, &M) -> u64,
    ) -> Option<&ShareTable> {
        let table = self.tables[placement.idx()].as_ref()?;
        let valid = self.version == version
            && table.capacity == capacity
            && table
                .legacy
                .iter()
                .all(|(vm, pool, m, joined)| (legacy_used(*vm, *pool, m) > 0) == *joined);
        valid.then_some(&table.shares)
    }

    /// Runs `f` against `registry`'s share table for one store,
    /// rebuilding it first if [`Self::cached`] has none. `version` must
    /// have moved since the last call if the registry has.
    ///
    /// Debug builds also build the table from scratch and assert that
    /// a memo which passes its own check again afterwards (under
    /// concurrency a mirror may move between the reads) equals it, so a
    /// hole in the rule fails loudly in `cargo test`.
    pub fn with<R>(
        &mut self,
        registry: &Registry<M>,
        version: u64,
        capacity: u64,
        placement: Placement,
        legacy_used: impl Fn(VmId, PoolId, &M) -> u64,
        f: impl FnOnce(&ShareTable) -> R,
    ) -> R {
        let build = || {
            let mut legacy = Vec::new();
            let shares = registry.share_table(capacity, placement, |vm, pool, m| {
                let used = legacy_used(vm, pool, m);
                legacy.push((vm, pool, m.clone(), used > 0));
                used
            });
            StoreMemo {
                capacity,
                shares,
                legacy,
            }
        };
        let idx = placement.idx();
        if self
            .cached(version, capacity, placement, &legacy_used)
            .is_none()
        {
            if self.version != version {
                (self.version, self.tables) = (version, [None, None]);
            }
            self.tables[idx] = Some(build());
        }
        let table = self.tables[idx].as_ref().expect("filled above");
        #[cfg(debug_assertions)]
        {
            let fresh = build().shares;
            assert!(
                fresh == table.shares
                    || self
                        .cached(version, capacity, placement, &legacy_used)
                        .is_none(),
                "stale share memo for {placement:?}: {:?}, built fresh {fresh:?}",
                table.shares
            );
        }
        f(&table.shares)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use ddc_sim::SimRng;

    use super::*;

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
    /// (policy, payload))` per VM and the highest id seen.
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

    fn flatten(registry: &Registry<u32>) -> Model {
        let rows = registry.vms().map(|(vm, row)| {
            let pools = row.pools.iter().map(|&(p, policy, m)| (p.0, (policy, m)));
            (vm.0, ((row.mem_weight, row.ssd_weight), pools.collect()))
        });
        rows.collect()
    }

    #[test]
    fn apply_matches_a_map_model_over_hostile_control_sequences() {
        for seed in 0..24 {
            let mut rng = SimRng::new(0x5E61 + seed);
            let (mut registry, mut model, mut last) = (Registry::default(), Model::new(), 0);
            for step in 0..400u32 {
                let rec = arbitrary_control(&mut rng, last + 1);
                let before = model.clone();
                model_apply(&mut model, &mut last, &rec, step);
                let version = registry.version();
                let control = registry.apply(&rec, || step);
                assert_eq!(flatten(&registry), model, "seed {seed} step {step} {rec:?}");
                assert_eq!(registry.next_pool(), PoolId(last + 1));
                // The pools the record took away, and the one it gave
                // or changed, are what the engine is told.
                let pools_of = |m: &Model| -> Vec<(u32, u32, CachePolicy, u32)> {
                    let rows = m.iter();
                    rows.flat_map(|(&vm, row)| row.1.iter().map(move |(&p, &(c, m))| (vm, p, c, m)))
                        .collect()
                };
                let (was, is) = (pools_of(&before), pools_of(&model));
                let gone: Vec<_> = was.iter().filter(|r| !is.contains(r)).collect();
                let want = match rec {
                    JournalRecord::AddVm { .. } | JournalRecord::SetVmWeights { .. } => {
                        Control::Weights
                    }
                    JournalRecord::RemoveVm { vm } if before.contains_key(&vm) => {
                        Control::Drain(VmId(vm), gone.iter().map(|r| (PoolId(r.1), r.3)).collect())
                    }
                    JournalRecord::DestroyPool { vm, .. } if !gone.is_empty() => {
                        Control::Drain(VmId(vm), vec![(PoolId(gone[0].1), gone[0].3)])
                    }
                    JournalRecord::CreatePool {
                        vm, pool, store, ..
                    } if store < 3 => {
                        let (policy, payload) = model[&vm].1[&pool];
                        let known = before.get(&vm).is_some_and(|r| r.1.contains_key(&pool));
                        if known {
                            Control::Swap(VmId(vm), PoolId(pool), policy)
                        } else {
                            Control::Install(VmId(vm), PoolId(pool), policy, payload)
                        }
                    }
                    JournalRecord::SetPolicy {
                        vm, pool, store, ..
                    } if store < 3 && before.get(&vm).is_some_and(|r| r.1.contains_key(&pool)) => {
                        Control::Swap(VmId(vm), PoolId(pool), model[&vm].1[&pool].0)
                    }
                    _ => Control::Ignored,
                };
                assert_eq!(control, want, "seed {seed} step {step} {rec:?}");
                // The version moves exactly when the answer is not
                // `Ignored`, and `Ignored` changed nothing: no memo is
                // retired over a record that names nothing.
                let moved = control != Control::Ignored;
                assert_eq!(registry.version(), version + u64::from(moved));
                assert!(moved || model == before);
            }
        }
        // An id at the top of the range does not wrap the mint.
        let mut registry = Registry::default();
        let (vm, pool, store, weight) = (1, u32::MAX, 0, 100);
        registry.apply(
            &JournalRecord::CreatePool {
                vm,
                pool,
                store,
                weight,
            },
            || 0,
        );
        assert_eq!(registry.next_pool(), PoolId(u32::MAX));
        assert_eq!(
            registry.apply(&JournalRecord::SsdDrain, || 0),
            Control::Ignored
        );
    }

    /// The pages of one pool in `[mem, ssd]`, shared with its row (the
    /// sharded engine's shape: the memo probes the payload itself).
    type Mirror = Arc<[AtomicU64; 2]>;

    /// `ShareTable::build` over the registry's rows and the true usage,
    /// written out here so the oracle shares nothing with
    /// [`Registry::share_table`].
    fn from_scratch<M: Clone>(
        registry: &Registry<M>,
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

    /// The memo against a from-scratch build after every step of a
    /// seeded stream that changes each of the table's three inputs on
    /// its own: registry records (weights, policy store and weight,
    /// pool create / destroy, VM removal — the only steps that move the
    /// version), capacity (a resize of either store), and a legacy
    /// pool's usage crossing zero in either direction. Both probe shapes run
    /// side by side: usage looked up by `(vm, pool)` (payload `()`, the
    /// serial engine) and usage read off the row's payload (the sharded
    /// engine's mirror).
    ///
    /// Deleting the version compare, the capacity compare or the legacy
    /// re-check from [`ShareMemo::cached`] each fails this test (in a
    /// debug build, at the assertion inside [`ShareMemo::with`]).
    #[test]
    fn share_memo_equals_a_from_scratch_build_after_every_step() {
        let mut rng = SimRng::new(0x3E30);
        let mut by_key = (Registry::<()>::default(), ShareMemo::default());
        let mut by_row = (Registry::<Mirror>::default(), ShareMemo::default());
        let mut usage: BTreeMap<(VmId, PoolId), [u64; 2]> = BTreeMap::new();
        let mut pages = [400u64, 900];
        let (mut crossings, mut rebuilds) = (0, 0);
        for step in 0..4000 {
            let pools: Vec<(VmId, PoolId)> = by_key.0.pool_ids().collect();
            match rng.range_u64(0, 10) {
                0..=2 => {
                    let rec = arbitrary_control(&mut rng, by_key.0.next_pool().0);
                    by_key.0.apply(&rec, || ());
                    by_row.0.apply(&rec, Mirror::default);
                    usage.retain(|&(vm, pool), _| by_key.0.pool(vm, pool).is_some());
                }
                3 | 4 => pages[rng.range_usize(0, 2)] = rng.range_u64(0, 5) * 300,
                _ if !pools.is_empty() => {
                    // Mostly to and from zero: that is what moves a
                    // legacy pool in and out of a store.
                    let (vm, pool) = pools[rng.range_usize(0, pools.len())];
                    let store = rng.range_usize(0, 2);
                    let used = [0, 0, 1, 7][rng.range_usize(0, 4)];
                    let old =
                        std::mem::replace(&mut usage.entry((vm, pool)).or_default()[store], used);
                    crossings += u64::from((old == 0) != (used == 0));
                    let mirror = &by_row.0.pool(vm, pool).expect("same registry").2;
                    mirror[store].store(used, Ordering::Relaxed);
                }
                _ => {}
            }
            for placement in [Placement::Mem, Placement::Ssd] {
                let i = placement.idx();
                let capacity = pages[i];
                let want = from_scratch(&by_key.0, capacity, placement, &usage);
                let version = by_key.0.version();
                assert_eq!(by_row.0.version(), version);
                let was_cached = |cached: Option<&ShareTable>| u64::from(cached.is_none());
                let keyed = |vm, pool, _: &()| usage.get(&(vm, pool)).map_or(0, |u| u[i]);
                rebuilds += was_cached(by_key.1.cached(version, capacity, placement, keyed));
                let got =
                    by_key
                        .1
                        .with(&by_key.0, version, capacity, placement, keyed, Clone::clone);
                assert_eq!(got, want, "step {step}, {placement:?}, usage by key");
                let probed = |_, _, m: &Mirror| m[i].load(Ordering::Relaxed);
                let got = by_row.1.with(
                    &by_row.0,
                    version,
                    capacity,
                    placement,
                    probed,
                    Clone::clone,
                );
                assert_eq!(
                    got, want,
                    "step {step}, {placement:?}, usage by row payload"
                );
            }
        }
        // The stream did exercise the rule, and the memo did memoize.
        assert!(crossings > 300, "{crossings} zero crossings");
        assert!(
            (1000..7000).contains(&rebuilds),
            "{rebuilds} rebuilds in 8000 reads"
        );
    }
}
