#!/bin/sh
# Repository CI gate: formatting, lints, rustdoc, then the tier-1 build + tests.
# Run from the workspace root; any failure aborts the script.
set -eu

# `cargo test ARGS -- FILTER...` passes when a filter matches no test, so
# a renamed or deleted test would leave its step green and empty.
# `need_tests ARGS -- FILTER...` lists the tests of `cargo test ARGS`
# and fails unless every filter matches at least one; `filtered` then
# runs them.
need_tests() {
    cargo_args=
    while [ "$1" != "--" ]; do
        cargo_args="$cargo_args $1"
        shift
    done
    shift
    for filter in "$@"; do
        # shellcheck disable=SC2086 # one word per cargo argument
        listed=$(cargo test $cargo_args -- --list "$filter" | grep -c ': test$' || true)
        if [ "$listed" -eq 0 ]; then
            echo "cargo test$cargo_args -- $filter: the filter matches no test"
            exit 1
        fi
    done
}
filtered() {
    need_tests "$@"
    cargo test "$@"
}

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc (deny warnings: a deletion that leaves a dangling doc link fails here)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> paper-shape scenario tests (ignored in debug builds; release only)"
cargo test --release -q -p ddc-bench
echo "==> hostile bytes: the scenario spec parser returns Ok or Err on 100,000 random and mutated inputs and never panics (release only)"
cargo test --release -q -p ddc-core --test prop_hostile_scenarios
echo "==> journal codec under optimisation (CRC offset x length sweep, golden image; the sliced loop is only unrolled in release)"
cargo test --release -q -p ddc-storage

echo "==> one shard state machine, one control path: both engines write one journal, report one entitlement and recover one cache (every 53-byte cut; release too, where the share memo runs without its debug assertion); the control stream (every control verb, remove_vm and set_mem_capacity among them) agrees on stats, entries and merged journal records after every verb; any well-framed journal (100,000 hostile streams, release only) recovers to one audit-clean, never-stale cache on the serial engine and at 1, 4 and 16 shards, and the four hand-built images of its answers (a generation written twice, a put into a sibling pool, a put into a full store, a put with an unknown placement); on the sharded engine a memory shrink holds its capacity once it returns while hybrid puts race it, and a VM removal leaves another VM's racing puts alone"
filtered --release -q -p ddc-core --test prop_one_state_machine -- one_control_stream_is_one_policy_module_on_both_engines any_well_framed_journal_recovers_to_one_cache a_generation_written_twice_ends_the_kept_prefix a_replayed_put_takes_its_block_from_the_vms_other_pools a_replayed_put_into_a_full_store_replaces_the_older_copy a_replayed_put_with_an_unknown_placement_takes_the_older_copy_out
cargo test --release -q -p ddc-core --test prop_one_state_machine -- --skip any_well_framed_journal --skip one_control_stream
filtered --release -q -p ddc-concurrent --lib -- a_memory_shrink_racing_hybrid_puts_holds_once_it_returns a_vm_removal_racing_another_vms_puts_leaves_its_pages_alone
filtered --release -q -p ddc-hypercache -- registry
echo "==> one conformance battery (serial, 1 and 16 shards, the null cache: exclusive, never stale, monotone epochs, exact stats, audit-clean after every step; a remote binding's localization; a destroyed pool id's stash kept for the pool that later takes the id)"
cargo test --release -q -p ddc-core --test prop_conformance
echo "==> one fault path per layer: the serial fault pin (SSD faults, quarantine, rot, re-homing and trickle-down into a faulting tier hash to recorded literals, ghost admission on and off), the hypercall channel's tests (a scalar call and a one-element batch cross one trap: same outcomes, counters and breaker through drops, fail-opens, trips and recoveries) and a quarantined SSD with no memory store turning puts away"
cargo test --release -q -p ddc-core --test serial_fault_pin
filtered --release -q -p ddc-cleancache --lib -- channel::
filtered --release -q -p ddc-hypercache --lib -- a_quarantined_ssd_with_no_memory_store_turns_puts_away
echo "==> shared touches off the hot path: compaction at the serial engine's operation through one handle and through handles taking turns, two threads inside the stated bound, memo placements = the serial engine's, control verbs racing hybrid puts, a put group that loses its pool mid-eviction, a put that evicts across a policy swap storing nothing under the old policy, a mixed put_many through two handles answering as the serial engine does, an all-miss get_many answered in one shard visit once a held shard lock drops, and the layout itself: no two groups of the shared core, no two shards and no two handles on one cache line (release too: the memo's debug assertion is compiled out there)"
cargo test --release -q -p ddc-core --test prop_shared_touches
filtered --release -q -p ddc-core --test prop_conformance -- a_mixed_put_many_answers_as_the_serial_engine_does
filtered --release -q -p ddc-concurrent --lib -- control_verbs_racing a_put_group_that_loses a_put_that_evicts_across_a_policy_swap an_all_miss_get_many_takes_one_shard_visit line_aligned share_no_cache_line
echo "==> eviction under every shard lock: threads flushing their own pages race the evictor in every mode (2 and 4 threads), a batch evicts the pool the walk picks on the usage left by the hook's flushes (1/4/16 shards), a Global put is stored while the hook flushes the oldest page, and one evicted sequence and one journal with the serial engine at 1/4/16 shards with queue entries unlinked between batches"
filtered --release -q -p ddc-core --test prop_concurrent_equivalence -- eviction_races_flushes a_batch_evicts_the_walks_pick a_global_put_is_stored single_threaded_eviction_sequence
echo "==> eviction queues and the lookup table threaded through the slab: a pool's queues against a model (whole pop order after drains and store-changing overwrites, SlotIds under removal-heavy schedules, length = used after every step), Global eviction against an eager reference FIFO on the serial engine and the sharded one at 1 and 16 shards with one pinned order for hybrid pools over an SSD store, one evicted sequence and journal with the serial engine after a removal-heavy prefix in every mode at 1/4/16 shards, the auditor finding a live slot missing from its queue, a pool drained only by exclusive gets holding exactly its live pages on its queues on both engines, the lookup table against a BTreeMap model (colliding tags, clusters wrapping past the last bucket, growth inside a cluster, removal inside a wrapped cluster, the census moving by exactly the buckets' bytes), and a second CreatePool for a registered pool keeping its pages on both engines"
cargo test --release -q -p ddc-core --test prop_arena_model
cargo test --release -q -p ddc-core --test prop_global_fifo
filtered --release -q -p ddc-core --test prop_concurrent_equivalence -- eviction_sequence_matches_serial_after
filtered --release -q -p ddc-hypercache --lib -- exclusive_gets_alone a_live_slot_missing_from_its_queue
filtered --release -q -p ddc-concurrent --lib -- exclusive_gets_alone
filtered --release -q -p ddc-hypercache --lib -- slot_table_matches_a_btreemap_model
filtered --release -q -p ddc-core --test prop_one_state_machine -- a_second_create_pool_for_a_registered_pool

echo "==> one wait policy: an eviction batch frees page by page (recording ledger), the Zipf guide table lands on the full search's rank, the backoff is bounded and a poisoned lock still panics (release too: the guide's debug assertion is compiled out there)"
filtered --release -q -p ddc-hypercache --lib -- shard::
filtered --release -q -p ddc-workloads --lib -- zipf
filtered --release -q -p ddc-concurrent --lib -- backoff poisoned

echo "==> frozen benchmark crate still builds and passes against the public API"
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
echo "==> ddbench smoke: all four workloads end to end (exit 1 on a stale hit, audit finding, recovery or same-seed mismatch)"
cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- run --workload all --smoke \
    >target/ddbench-smoke.txt || { cat target/ddbench-smoke.txt; exit 1; }
# peak_rss_mb beside each run's op count: printed, never judged.
awk '$1 == "ddbench" { run = $3 } $1 == "peak_rss_mb" { rss = $2 }
    /^ops attempted/ { printf "%s: %s  peak_rss_mb: %s\n", run, $0, rss }' target/ddbench-smoke.txt
echo "==> journal record kernel (ns per record) and group commit (total s, p99 ns; ddbench trace, engine-batched, smoke)"
cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- trace --workload engine-batched --smoke \
    >target/ddbench-trace-smoke.txt || { cat target/ddbench-trace-smoke.txt; exit 1; }
grep -E "^journal\.((append|replay)_ns_per_record|commit_(s|p99_ns))" target/ddbench-trace-smoke.txt
echo "==> what a second client is worth (printed, never judged: the number to watch for the shared core's layout; two separate one-thread processes get 1.9 on the reference box, short runs scatter): engine-batched ops_per_s, --threads 2 over --threads 1"
if [ "$(nproc)" -ge 2 ]; then
    batched_ops_per_s() {
        cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- run --workload engine-batched --seconds 5 --threads "$1" |
            awk '$1 == "ops_per_s" { printf "%d", $2 }'
    }
    one=$(batched_ops_per_s 1)
    two=$(batched_ops_per_s 2)
    awk -v one="$one" -v two="$two" 'BEGIN { printf "engine-batched: %d op/s at 1 thread, %d at 2, second client x%.2f\n", one, two, two / one }'
else
    echo "one core: nothing to compare"
fi
echo "==> journal bytes gate (ddbench trace --smoke --threads 1: single-threaded, so exact; a PR that moves these on purpose edits them here and says why)"
trace_gate() {
    workload=$1
    shift
    out=target/ddbench-trace-$workload-t1.txt
    cargo run --release -q --offline --manifest-path benchmark/Cargo.toml -- trace --workload "$workload" --smoke --threads 1 \
        >"$out" || { cat "$out"; exit 1; }
    while [ $# -gt 0 ]; do
        got=$(awk -v metric="journal.$1" '$1 == metric { printf "%d", $2 }' "$out")
        if [ "$got" != "$2" ]; then
            echo "journal.$1 on $workload: expected $2, got ${got:-nothing}"
            exit 1
        fi
        shift 2
    done
    echo "$workload: journal bytes unchanged"
}
trace_gate engine-batched records_at_end 42664 bytes_at_end 1944379 compactions 1
trace_gate guest-durable-write records_at_end 80397 bytes_at_end 3402680 compactions 1 \
    recover_records_replayed 80397 recover_entries 20177

echo "==> golden results ('repro all --json' reproduces results/ byte for byte: same files, same bytes)"
# Every report of 'repro all' is a function of its seeds: figures,
# chaos, stress, remote, wear and the per-cell work counters. A change
# that moves one on purpose regenerates results/ and says why.
golden=target/golden-results
rm -rf "$golden"
cargo run --release -q -p ddc-bench --bin repro -- all --json "$golden" >/dev/null
(cd results && ls -- *.json) >target/golden-committed.txt
(cd "$golden" && ls -- *.json) | diff target/golden-committed.txt - || {
    echo "results/ (<) and 'repro all --json' (>) do not hold the same reports"
    exit 1
}
for f in results/*.json; do
    cmp "$f" "$golden/$(basename "$f")"
done

echo "==> perf smoke (wall clock per cell, printed and never gated; speed is judged by ddbench pairs)"
cargo run --release -q -p ddc-bench --bin repro -- perf --smoke

echo "==> chaos smoke (seeded crash/recovery sweep)"
cargo run --release -q -p ddc-bench --bin repro -- chaos --smoke
echo "==> chaos smoke again with 8 experiment workers (kill/recover sweep incl. remote partition/hedge/breaker axes)"
DDC_THREADS=8 cargo run --release -q -p ddc-bench --bin repro -- chaos --smoke
cargo test -q -p ddc-core --test prop_sharded_recovery

echo "==> remote-tier smoke (fault-axis matrix, per-third degradation ladder, cold-boot storm)"
DDC_THREADS=8 cargo run --release -q -p ddc-bench --bin repro -- remote --smoke
cargo test -q -p ddc-core --test prop_remote_determinism

echo "==> stress smoke (serial-vs-sharded equivalence + threaded stress), then the driver's own tests under --release (the 8-thread crash continuation, the eviction storm at 2 and 8 threads, racing commit ticks against durable cuts)"
cargo run --release -q -p ddc-bench --bin repro -- stress --smoke
filtered --release -q -p ddc-concurrent --lib -- driver::
# The three 8-worker smokes below oversubscribe the box, which is where a
# spinning waiter could hurt: their "[repro finished in ...]" lines are the
# wall times to compare before and after a change to crates/concurrent's
# backoff (printed, never gated; EXPERIMENTS.md "One wait policy").
echo "==> stress smoke again with 8 experiment workers (cross-cell contention)"
DDC_THREADS=8 cargo run --release -q -p ddc-bench --bin repro -- stress --smoke
echo "==> stress smoke, 95/5 read-heavy mix (nearly every get a miss, each one a locked home-shard visit)"
DDC_THREADS=8 cargo run --release -q -p ddc-bench --bin repro -- stress --smoke --read-heavy
echo "==> stress smoke, put-dominant write-heavy mix through the batched write plane"
DDC_THREADS=8 cargo run --release -q -p ddc-bench --bin repro -- stress --smoke --write-heavy
cargo test -q -p ddc-core --test prop_concurrent_equivalence
cargo test -q -p ddc-core --test prop_batched_writes

echo "==> wear smoke (ghost admission + TTL demotion)"
cargo run --release -q -p ddc-bench --bin repro -- wear --smoke
echo "==> wear smoke again with 8 experiment workers"
DDC_THREADS=8 cargo run --release -q -p ddc-bench --bin repro -- wear --smoke
cargo test -q -p ddc-core --test prop_wear_admission

# Optional race-detector smoke: opt in with DDC_TSAN=1. Needs a nightly
# toolchain (-Zsanitizer); tier-1 above never depends on it, so CI stays
# green on stable-only machines. Runs the racing-gets and group-commit race
# tests of ddc-concurrent, and the every-mode eviction flush race test, under
# ThreadSanitizer.
if [ "${DDC_TSAN:-0}" = "1" ]; then
    need_tests --release -q -p ddc-concurrent -- racing read_heavy commit
    need_tests --release -q -p ddc-core --test prop_concurrent_equivalence -- eviction_races_flushes
    if rustup run nightly rustc --version >/dev/null 2>&1; then
        echo "==> TSan smoke (nightly, ddc-concurrent race tests)"
        RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            rustup run nightly cargo test -q -p ddc-concurrent \
            -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
            --target-dir target/tsan \
            -- racing read_heavy commit 2>/dev/null \
            && RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
            rustup run nightly cargo test -q -p ddc-core --test prop_concurrent_equivalence \
            -Z build-std --target "$(rustc -vV | sed -n 's/^host: //p')" \
            --target-dir target/tsan \
            -- eviction_races_flushes 2>/dev/null \
            || echo "TSan smoke unavailable (missing rust-src or build-std); skipping"
    else
        echo "DDC_TSAN=1 set but no nightly toolchain; skipping TSan smoke"
    fi
fi

echo "CI green."
