//! The scenario spec parser under hostile input: `ScenarioSpec::from_json`
//! returns `Ok` or `Err` on any bytes and never panics, every field lands
//! where a hand-written spec says it does, the in-tree specs build, and a
//! 32-bit field out of range is an error rather than a truncation.
//!
//! Two corpora, 100,000 inputs in all, seeded so a failure names its
//! case and reruns exactly: random byte strings (half drawn from the
//! bytes JSON and the spec's keys are made of, so they get past the
//! first character), and single-byte mutations — a byte replaced,
//! deleted or inserted — of the in-tree scenario specs, which reach
//! every field parser behind a document that is still JSON.

use std::panic;

use ddc_core::scenario::{
    self, ActionSpec, CacheSpec, ContainerSpec, FaultSpec, FaultWindowSpec, PolicySpec,
    ScenarioSpec, VmSpec, WorkloadSpec,
};
use ddc_core::sim::SimRng;

/// The example spec shipped with the repository.
const DERIVATIVE_CLOUD: &str = include_str!("../examples/scenarios/derivative_cloud.json");

/// Every optional field and every variant the parser knows: each
/// workload kind, each action and a fault plan.
const EVERY_FIELD: &str = r#"{
  "name": "every-field",
  "cache": { "mem_mb": 64, "ssd_mb": 256, "mode": "strict" },
  "duration_secs": 20, "sample_secs": 2, "warmup_secs": 5,
  "vms": [ { "mem_mb": 64, "weight": 100, "containers": [
    { "name": "w", "limit_mb": 8, "policy": { "store": "mem", "weight": 20 }, "threads": 2,
      "start_secs": 1,
      "workload": { "kind": "webserver", "files": 40, "zipf_theta": 0.9, "think_us": 10 } },
    { "name": "p", "limit_mb": 8, "policy": { "store": "hybrid", "weight": 20 },
      "workload": { "kind": "proxycache", "files": 30 } },
    { "name": "m", "limit_mb": 8, "policy": { "store": "ssd", "weight": 20 },
      "workload": { "kind": "mail", "files": 20 } },
    { "name": "v", "limit_mb": 8, "policy": { "store": "ssd", "weight": 100 },
      "workload": { "kind": "videoserver", "videos": 8, "video_blocks": 16 } },
    { "name": "f", "limit_mb": 8, "policy": { "store": "hybrid", "weight": 20 },
      "workload": { "kind": "fileserver", "files": 10 } },
    { "name": "o", "limit_mb": 8, "policy": { "store": "mem", "weight": 20 },
      "workload": { "kind": "oltp", "data_blocks": 64, "write_fraction": 0.25 } },
    { "name": "y", "limit_mb": 8, "policy": { "store": "disabled" },
      "workload": { "kind": "ycsb", "store": "mongodb", "dataset_blocks": 64,
                    "update_fraction": 0.5 } }
  ] } ],
  "schedule": [
    { "action": "set_container_policy", "at_secs": 3, "container": "w",
      "policy": { "store": "ssd", "weight": 50 } },
    { "action": "set_vm_weight", "at_secs": 4, "vm": 0, "weight": 70 },
    { "action": "set_mem_capacity_mb", "at_secs": 5, "mem_mb": 48 },
    { "action": "set_container_limit_mb", "at_secs": 6, "container": "p", "limit_mb": 4 },
    { "action": "drop_caches", "at_secs": 7, "container": "m" }
  ],
  "faults": { "seed": 7, "ssd_fallback": "reject",
    "ssd": [ { "from_secs": 2, "until_secs": 5, "kind": "brownout",
               "error_rate": 0.5, "extra_latency_us": 500 } ],
    "channel": [ { "from_secs": 3, "kind": "transient_errors", "error_rate": 0.2 } ] }
}"#;

/// Bytes JSON and the spec's keys are made of.
const ALPHABET: &[u8] = b"{}[]\",:\\ 0123456789.-+eE_aceiklmnorstuwy\n\x00\x7f\xc3\xa9";

/// Parses `bytes` (lossily decoded, as a file read would); returns
/// whether the spec was accepted. Panics name the case.
fn check(case: &str, bytes: &[u8]) -> bool {
    let text = String::from_utf8_lossy(bytes);
    let parsed = panic::catch_unwind(|| ScenarioSpec::from_json(&text));
    let Ok(parsed) = parsed else {
        panic!("{case}: from_json panicked on {text:?}");
    };
    parsed.is_ok()
}

fn policy(store: &str, weight: u32) -> PolicySpec {
    PolicySpec {
        store: store.to_owned(),
        weight,
    }
}

fn container(name: &str, policy: PolicySpec, workload: WorkloadSpec) -> ContainerSpec {
    ContainerSpec {
        name: name.to_owned(),
        limit_mb: 8,
        policy,
        workload,
        threads: None,
        start_secs: None,
    }
}

/// `EVERY_FIELD` written out by hand, line for line: a value parsed into
/// the wrong field, or not parsed at all, differs from it.
#[rustfmt::skip]
fn every_field_spec() -> ScenarioSpec {
    use ActionSpec::*;
    use WorkloadSpec::*;
    let window = |from_secs, until_secs, kind: &str, error_rate, extra_latency_us| {
        FaultWindowSpec { from_secs, until_secs, kind: kind.to_owned(), error_rate, extra_latency_us }
    };
    ScenarioSpec {
        name: "every-field".to_owned(),
        cache: CacheSpec { mem_mb: 64, ssd_mb: 256, mode: Some("strict".to_owned()) },
        duration_secs: 20, sample_secs: Some(2), warmup_secs: Some(5),
        vms: vec![VmSpec { mem_mb: 64, weight: 100, containers: vec![
            ContainerSpec { threads: Some(2), start_secs: Some(1), ..container("w", policy("mem", 20),
                Webserver { files: Some(40), zipf_theta: Some(0.9), think_us: Some(10) }) },
            container("p", policy("hybrid", 20), Proxycache { files: Some(30) }),
            container("m", policy("ssd", 20), Mail { files: Some(20) }),
            container("v", policy("ssd", 100), Videoserver { videos: Some(8), video_blocks: Some(16) }),
            container("f", policy("hybrid", 20), Fileserver { files: Some(10) }),
            container("o", policy("mem", 20), Oltp { data_blocks: Some(64), write_fraction: Some(0.25) }),
            container("y", policy("disabled", 0), Ycsb { store: "mongodb".to_owned(), dataset_blocks: 64,
                update_fraction: Some(0.5) }),
        ] }],
        schedule: vec![
            SetContainerPolicy { at_secs: 3, container: "w".to_owned(), policy: policy("ssd", 50) },
            SetVmWeight { at_secs: 4, vm: 0, weight: 70 },
            SetMemCapacityMb { at_secs: 5, mem_mb: 48 },
            SetContainerLimitMb { at_secs: 6, container: "p".to_owned(), limit_mb: 4 },
            DropCaches { at_secs: 7, container: "m".to_owned() },
        ],
        faults: Some(FaultSpec { seed: 7, ssd_fallback: Some("reject".to_owned()),
            ssd: vec![window(2, Some(5), "brownout", Some(0.5), Some(500))],
            channel: vec![window(3, None, "transient_errors", Some(0.2), None)] }),
    }
}

#[test]
fn every_field_parses_into_its_place() {
    assert_eq!(ScenarioSpec::from_json(EVERY_FIELD), Ok(every_field_spec()));
}

#[test]
fn the_in_tree_specs_parse_and_build() {
    for json in [DERIVATIVE_CLOUD, EVERY_FIELD] {
        let spec = ScenarioSpec::from_json(json).expect("in-tree spec parses");
        if let Err(e) = scenario::build(&spec) {
            panic!("{}: {e}", spec.name);
        }
    }
}

/// A 32-bit field given a larger integer is refused rather than
/// truncated (2^32 + 20 would read as 20).
#[test]
fn a_32_bit_field_out_of_range_is_an_error() {
    let wide = u64::from(u32::MAX) + 21;
    for (key, value) in [("weight", 20), ("threads", 2), ("video_blocks", 16)] {
        let narrow = format!("\"{key}\": {value}");
        let json = EVERY_FIELD.replacen(&narrow, &format!("\"{key}\": {wide}"), 1);
        assert_ne!(json, EVERY_FIELD, "{narrow} is in the spec");
        let e = ScenarioSpec::from_json(&json).expect_err(key);
        assert!(e.to_string().contains("32 bits"), "{e}");
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100,000 inputs in all; run with --release")]
fn arbitrary_bytes_never_panic_the_spec_parser() {
    let mut rng = SimRng::new(0x5CE7);
    for case in 0..40_000u64 {
        let len = rng.range_usize(0, 128);
        let bytes: Vec<u8> = (0..len)
            .map(|_| match case % 2 {
                0 => ALPHABET[rng.range_usize(0, ALPHABET.len())],
                _ => rng.range_u64(0, 256) as u8,
            })
            .collect();
        check(&format!("random case {case}"), &bytes);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "100,000 inputs in all; run with --release")]
fn single_byte_mutations_of_the_in_tree_specs_never_panic_the_parser() {
    let mut rng = SimRng::new(0x5CE8);
    let mut accepted = 0u64;
    for case in 0..60_000u64 {
        let spec = [DERIVATIVE_CLOUD, EVERY_FIELD][(case % 2) as usize].as_bytes();
        let mut bytes = spec.to_vec();
        let at = rng.range_usize(0, bytes.len());
        let byte = match rng.range_u64(0, 2) {
            0 => ALPHABET[rng.range_usize(0, ALPHABET.len())],
            _ => rng.range_u64(0, 256) as u8,
        };
        match rng.range_u64(0, 3) {
            0 => bytes[at] = byte,
            1 => drop(bytes.remove(at)),
            _ => bytes.insert(at, byte),
        }
        accepted += u64::from(check(&format!("mutation case {case}"), &bytes));
    }
    // Most mutations land in whitespace or a value and still parse: the
    // field parsers, not only the JSON grammar, saw hostile values.
    assert!(accepted > 10_000, "only {accepted} mutations parsed");
}
