//! Property test for the policy module's two-level decision (paper
//! §4.2 entitlements + Algorithm 1 victim walk): `ShareTable::build`
//! and `ShareTable::select_victim` against a brute-force transcription
//! written here, over random registries. Both engines route every
//! entitlement query and every weighted eviction through those two
//! functions, so this is the independent reference for the policy the
//! way `prop_arena_model` is for the index. (Seeded SimRng schedules —
//! the in-tree replacement for proptest.)

use ddc_core::hypercache::index::Placement;
use ddc_core::hypercache::policy::ShareTable;
use ddc_core::prelude::*;

/// One pool of a random registry: its `<T, W>` policy and what it
/// currently holds in each store (`[mem, ssd]`).
struct ModelPool {
    id: PoolId,
    policy: CachePolicy,
    used: [u64; 2],
}

/// One VM: per-store weights (`[mem, ssd]`, paper footnote 1) and pools.
struct ModelVm {
    id: VmId,
    weights: [u64; 2],
    pools: Vec<ModelPool>,
}

/// What the model knows of one entity: `(entitlement, used, weight)`.
type Ent = (u64, u64, u64);

/// One store's participants with the model's shares filled in.
type Model = Vec<(VmId, Ent, Vec<(PoolId, Ent)>)>;

// ---- brute-force reference (§4.2 + Algorithm 1) -----------------------

/// Weight-proportional split: floors first, then the leftover pages one
/// at a time in descending-weight order (ties by position).
fn model_split(capacity: u64, weights: &[u64]) -> Vec<u64> {
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    if total == 0 {
        return vec![0; weights.len()];
    }
    let floor = |w: u64| (capacity as u128 * w as u128 / total) as u64;
    let mut shares: Vec<u64> = weights.iter().map(|&w| floor(w)).collect();
    let mut order: Vec<usize> = (0..weights.len()).filter(|&i| weights[i] > 0).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    for k in 0..(capacity - shares.iter().sum::<u64>()) as usize {
        shares[order[k % order.len()]] += 1;
    }
    shares
}

/// Algorithm 1: among the entities over their limit, the first with the
/// largest exceed after handing the underused slack to the overused in
/// proportion to weight (no slack when `strict`).
fn model_alg1(strict: bool, batch: u64, e: &[Ent]) -> Option<usize> {
    let over = |x: &Ent| x.0 < x.1 + batch;
    let slack = |x: &Ent| x.0.saturating_sub(x.1);
    let cw: u64 = e.iter().filter(|x| over(x)).map(|x| x.2).sum();
    let buf: u64 = e
        .iter()
        .map(slack)
        .filter(|&s| !strict && s > 2 * batch)
        .sum();
    // cw == 0 only when every overused weight is 0, and 0 / 1 lends 0.
    let lent = |x: &Ent| buf as f64 * x.2 as f64 / cw.max(1) as f64;
    let exceed = |x: &Ent| (x.1 + batch) as f64 - (x.0 as f64 + lent(x));
    let mut best: Option<usize> = None;
    for (i, x) in e.iter().enumerate() {
        if over(x) && best.is_none_or(|b| exceed(x) > exceed(&e[b])) {
            best = Some(i);
        }
    }
    best
}

/// The two-level walk with its largest-user fallbacks.
fn model_victim(strict: bool, batch: u64, vms: &Model) -> Option<(VmId, PoolId)> {
    let vm_level: Vec<Ent> = vms.iter().map(|v| v.1).collect();
    let Some(vi) = model_alg1(strict, batch, &vm_level) else {
        let mut best: Option<(VmId, PoolId, u64)> = None;
        for (vm, pool, e) in vms.iter().flat_map(|v| v.2.iter().map(|p| (v.0, p.0, p.1))) {
            if e.1 > best.map_or(0, |b| b.2) {
                best = Some((vm, pool, e.1));
            }
        }
        return best.map(|b| (b.0, b.1));
    };
    let pools = &vms[vi].2;
    let pool_level: Vec<Ent> = pools.iter().map(|p| p.1).collect();
    let used = |i: &usize| pools[*i].1 .1;
    let pi = model_alg1(strict, batch, &pool_level)
        .or_else(|| (0..pools.len()).filter(|i| used(i) > 0).max_by_key(used))?;
    Some((vms[vi].0, pools[pi].0))
}

// ---- generator ---------------------------------------------------------

fn random_policy(r: &mut SimRng) -> CachePolicy {
    // Zero weights on purpose: a zero-weight pool is assigned to its
    // store but entitled to nothing.
    let weight = if r.chance(0.2) {
        0
    } else {
        r.range_u64(1, 100) as u32
    };
    match r.range_u64(0, 3) {
        0 => CachePolicy::mem(weight),
        1 => CachePolicy::ssd(weight),
        _ => CachePolicy::hybrid(weight),
    }
}

fn random_registry(r: &mut SimRng) -> Vec<ModelVm> {
    let mut next_pool = 1;
    (0..r.range_u64(1, 7) as u32)
        .map(|v| ModelVm {
            id: VmId(v),
            weights: [0, 1].map(|_| {
                if r.chance(0.15) {
                    0
                } else {
                    r.range_u64(1, 400)
                }
            }),
            pools: (0..r.range_u64(0, 6))
                .map(|_| {
                    let policy = random_policy(r);
                    next_pool += 1;
                    // Usage in a store the policy does not assign the
                    // pool to makes it a legacy participant there.
                    let used = [0, 1].map(|_| {
                        if r.chance(0.4) {
                            0
                        } else {
                            r.range_u64(1, 900)
                        }
                    });
                    ModelPool {
                        id: PoolId(next_pool),
                        policy,
                        used,
                    }
                })
                .collect(),
        })
        .collect()
}

fn assigned(policy: CachePolicy, placement: Placement) -> bool {
    match placement {
        Placement::Mem => policy.store.uses_mem(),
        Placement::Ssd => policy.store.uses_ssd(),
    }
}

#[test]
fn share_table_and_victim_walk_match_the_brute_force_model() {
    let mut rng = SimRng::new(0xA161);
    let mut fallbacks = 0;
    let mut legacy_rows = 0;
    for case in 0..2000 {
        let mut r = rng.fork(case);
        let registry = random_registry(&mut r);
        // Odd capacities leave rounding slack at both levels.
        let capacity = r.range_u64(0, 6000) | 1;
        for (si, placement) in [Placement::Mem, Placement::Ssd].into_iter().enumerate() {
            let participates = |p: &ModelPool| assigned(p.policy, placement) || p.used[si] > 0;
            let weight_of = |p: &ModelPool| {
                if assigned(p.policy, placement) {
                    p.policy.weight as u64
                } else {
                    0
                }
            };
            let table = ShareTable::build(
                capacity,
                registry.iter().map(|vm| {
                    let pools = (vm.pools.iter().filter(|p| participates(p)))
                        .map(|p| (p.id, weight_of(p)))
                        .collect();
                    (vm.id, vm.weights[si], pools)
                }),
            );

            // The model's table, straight from the registry.
            let members: Vec<&ModelVm> = registry
                .iter()
                .filter(|vm| vm.pools.iter().any(participates))
                .collect();
            let vm_weights: Vec<u64> = members.iter().map(|vm| vm.weights[si]).collect();
            let mut model: Model = Vec::new();
            for (vm, vm_share) in members.iter().zip(model_split(capacity, &vm_weights)) {
                let pools: Vec<&ModelPool> = vm.pools.iter().filter(|p| participates(p)).collect();
                let weights: Vec<u64> = pools.iter().map(|p| weight_of(p)).collect();
                let rows: Vec<(PoolId, Ent)> = pools
                    .iter()
                    .zip(model_split(vm_share, &weights))
                    .map(|(p, share)| (p.id, (share, p.used[si], weight_of(p))))
                    .collect();
                legacy_rows += (pools.iter())
                    .filter(|p| !assigned(p.policy, placement))
                    .count();
                let vm_used = rows.iter().map(|row| row.1 .1).sum();
                model.push((vm.id, (vm_share, vm_used, vm.weights[si]), rows));
            }

            let got: Vec<(VmId, u64)> = table.rows().map(|(vm, share, _)| (vm, share)).collect();
            let want: Vec<(VmId, u64)> = model.iter().map(|v| (v.0, v.1 .0)).collect();
            assert_eq!(got, want, "case {case} {placement:?}: VM shares");
            for ((vm, _, got), (_, _, want)) in table.rows().zip(&model) {
                let want: Vec<_> = want.iter().map(|&(p, e)| (p, e.0, e.2)).collect();
                assert_eq!(got, want, "case {case} {placement:?}: pool shares of {vm}");
            }
            for vm in &registry {
                for p in &vm.pools {
                    let want = model
                        .iter()
                        .filter(|row| row.0 == vm.id)
                        .flat_map(|row| row.2.iter().filter(|row| row.0 == p.id))
                        .map(|row| row.1 .0)
                        .next()
                        .unwrap_or(0);
                    assert_eq!(table.pool_entitlement(vm.id, p.id), want, "case {case}");
                }
            }

            let used_of = |vm: VmId, pool: PoolId| {
                let vm = registry.iter().find(|m| m.id == vm).expect("known vm");
                vm.pools
                    .iter()
                    .find(|p| p.id == pool)
                    .expect("known pool")
                    .used[si]
            };
            // Batches from "every entity is over" down to "nobody is".
            for batch in [512, 64, 1, 0] {
                for strict in [false, true] {
                    let want = model_victim(strict, batch, &model);
                    assert_eq!(
                        table.select_victim(strict, batch, used_of),
                        want,
                        "case {case} {placement:?} batch {batch} strict {strict}"
                    );
                    let vm_level: Vec<Ent> = model.iter().map(|v| v.1).collect();
                    if want.is_some() && model_alg1(strict, batch, &vm_level).is_none() {
                        fallbacks += 1;
                    }
                }
            }
        }
    }
    // The generator must actually reach the corners it claims to.
    assert!(
        fallbacks > 100,
        "store-wide fallback barely exercised: {fallbacks}"
    );
    assert!(
        legacy_rows > 100,
        "legacy participants barely exercised: {legacy_rows}"
    );
}
