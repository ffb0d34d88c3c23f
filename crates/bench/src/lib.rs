//! Benchmark harness for the DoubleDecker reproduction.
//!
//! One scenario module per paper artifact; the `repro` binary dispatches
//! to them and prints paper-style tables and occupancy charts.
//!
//! All scenarios are **scaled** versions of the paper's testbed (see
//! DESIGN.md): sizes divided by ~8, durations compressed, and the
//! caching unit is a 64 KiB block. Shapes — who wins, by what factor,
//! where crossovers fall — are the reproduction target, not absolute
//! numbers.

pub mod scenarios;

pub use scenarios::common::{mb, to_mb};
