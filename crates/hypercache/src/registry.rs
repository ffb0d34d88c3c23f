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
//! Each pool row shares its pool's [`Usage`] cell: [`Registry::apply`]
//! makes it, the pool the row installs counts its pages in it, and
//! every reader of usage here — the share tables, the memo's re-check,
//! the victim walk ([`Registry::victim`]) — reads it off the row, on
//! both engines. One cell per pool, so there is no second copy to
//! drift, and the re-check is one atomic load per legacy pool.

use std::collections::BTreeMap;
use std::sync::Arc;

use ddc_cleancache::{CachePolicy, PoolId, VmId};
use ddc_storage::{JournalRecord, RemoteError};

use crate::index::{Placement, Usage};
use crate::policy::ShareTable;
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
    /// How many records changed the registry (see [`Self::version`]).
    version: u64,
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

    /// The registry's version: moved by every [`Self::apply`] whose
    /// answer is not [`Control::Ignored`] (a record that names nothing
    /// changed nothing, so no memo is retired over it). The version a
    /// [`ShareMemo`] is validated against.
    pub fn version(&self) -> u64 {
        self.version
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
    /// answer moves [`Self::version`].
    pub fn apply(&mut self, rec: &JournalRecord) -> Control {
        let control = self.transition(rec);
        if !matches!(control, Control::Ignored) {
            self.version += 1;
        }
        control
    }

    /// [`Self::apply`] without the version.
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

    /// One store's share table over this registry, through the policy
    /// module's one builder. A pool participates if its policy assigns
    /// it to the store, or — at weight 0 — while its cell shows legacy
    /// pages there.
    pub fn share_table(&self, capacity: u64, placement: Placement) -> ShareTable {
        self.share_table_seeing(capacity, placement, |_, _| ())
    }

    /// [`Self::share_table`], showing `legacy` the cell of every pool
    /// the policy does not assign to the store and whether it joined.
    fn share_table_seeing(
        &self,
        capacity: u64,
        placement: Placement,
        mut legacy: impl FnMut(&Arc<Usage>, bool),
    ) -> ShareTable {
        ShareTable::build(
            capacity,
            self.vms().map(|(vm, row)| {
                let mut pools = Vec::new();
                for (pid, policy, usage) in &row.pools {
                    if placement.allowed_by(policy.store) {
                        pools.push((*pid, u64::from(policy.weight)));
                    } else if usage.pages(placement) > 0 {
                        legacy(usage, true);
                        pools.push((*pid, 0));
                    } else {
                        legacy(usage, false);
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

    /// Algorithm 1's victim in one store, `(vm, pool)`: the policy
    /// module's two-level walk over `table`, each pool's usage read off
    /// its row. Both engines' weighted eviction picks through this.
    pub fn victim(
        &self,
        table: &ShareTable,
        placement: Placement,
        strict: bool,
    ) -> Option<(VmId, PoolId)> {
        table.select_victim(strict, EVICTION_BATCH_PAGES, |vm, pool| {
            self.pool(vm, pool).map_or(0, |row| row.2.pages(placement))
        })
    }
}

/// Memoized share tables, one per store, valid by construction: see the
/// [module docs](self) for the rule and why it is exact.
#[derive(Clone, Debug, Default)]
pub struct ShareMemo {
    /// The registry version the tables were built under.
    version: u64,
    /// Per store (`[mem, ssd]`), lazily built.
    tables: [Option<StoreMemo>; 2],
}

#[derive(Clone, Debug)]
struct StoreMemo {
    /// Store capacity the shares were split over.
    capacity: u64,
    shares: ShareTable,
    /// The cell of every pool the policy does *not* assign to this
    /// store, and whether it participated (held legacy pages) at build
    /// time, in registry order. A flip in any of these is the only way
    /// usage can change the table.
    legacy: Vec<(Arc<Usage>, bool)>,
}

impl ShareMemo {
    /// The memoized table for one store, if it is filled and its three
    /// inputs still read as they did when it was built.
    pub fn cached(&self, version: u64, capacity: u64, placement: Placement) -> Option<&ShareTable> {
        let table = self.tables[placement.idx()].as_ref()?;
        let valid = self.version == version
            && table.capacity == capacity
            && (table.legacy.iter()).all(|(usage, joined)| (usage.pages(placement) > 0) == *joined);
        valid.then_some(&table.shares)
    }

    /// Runs `f` against `registry`'s share table for one store,
    /// rebuilding it first if [`Self::cached`] has none. `version` must
    /// have moved since the last call if the registry has.
    ///
    /// Debug builds also build the table from scratch and assert that
    /// a memo which passes its own check again afterwards (under
    /// concurrency a cell may move between the reads) equals it, so a
    /// hole in the rule fails loudly in `cargo test`.
    pub fn with<R>(
        &mut self,
        registry: &Registry,
        version: u64,
        capacity: u64,
        placement: Placement,
        f: impl FnOnce(&ShareTable) -> R,
    ) -> R {
        let build = || {
            let mut legacy = Vec::new();
            let shares = registry.share_table_seeing(capacity, placement, |usage, joined| {
                legacy.push((Arc::clone(usage), joined));
            });
            StoreMemo {
                capacity,
                shares,
                legacy,
            }
        };
        let idx = placement.idx();
        if self.cached(version, capacity, placement).is_none() {
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
                fresh == table.shares || self.cached(version, capacity, placement).is_none(),
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
                let version = registry.version();
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
                // The version moves exactly when the answer is not
                // `Ignored`, and `Ignored` changed nothing: no memo is
                // retired over a record that names nothing.
                let moved = !matches!(control, Control::Ignored);
                assert_eq!(registry.version(), version + u64::from(moved));
                assert!(moved || model == before);
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

    /// The memo against a from-scratch build after every step of a
    /// seeded stream that changes each of the table's three inputs on
    /// its own: registry records (weights, policy store and weight,
    /// pool create / destroy, VM removal — the only steps that move the
    /// version), capacity (a resize of either store), and a legacy
    /// pool's usage crossing zero in either direction, written by a
    /// pool built on its row's cell, as both engines' pools are.
    ///
    /// Deleting the version compare, the capacity compare or the legacy
    /// re-check from [`ShareMemo::cached`] each fails this test (in a
    /// debug build, at the assertion inside [`ShareMemo::with`]).
    #[test]
    fn share_memo_equals_a_from_scratch_build_after_every_step() {
        let mut rng = SimRng::new(0x3E30);
        let (mut registry, mut memo) = (Registry::default(), ShareMemo::default());
        let mut pools: BTreeMap<(VmId, PoolId), Pool> = BTreeMap::new();
        let mut usage: BTreeMap<(VmId, PoolId), [u64; 2]> = BTreeMap::new();
        let mut pages = [400u64, 900];
        let (mut crossings, mut rebuilds) = (0, 0);
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
            for placement in [Placement::Mem, Placement::Ssd] {
                let capacity = pages[placement.idx()];
                let want = from_scratch(&registry, capacity, placement, &usage);
                let version = registry.version();
                let cached = memo.cached(version, capacity, placement);
                rebuilds += u64::from(cached.is_none());
                let got = memo.with(&registry, version, capacity, placement, Clone::clone);
                assert_eq!(got, want, "step {step}, {placement:?}");
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
