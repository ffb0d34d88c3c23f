//! Measurement and reporting utilities for the DoubleDecker reproduction.
//!
//! The paper reports application throughput (ops/sec and MB/s), IO latency,
//! cache hit ("lookup-to-store") ratios, eviction counts, and cache
//! occupancy over time. This crate provides the collection types
//! ([`Counter`], [`LatencyHistogram`], [`OpsRecorder`]) and the plain-text
//! table/figure renderers the `repro` harness uses to print paper-style
//! output.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod histogram;
mod recorder;
mod snapshot;
mod table;

pub use batch::BatchCounters;
pub use histogram::LatencyHistogram;
pub use recorder::{Counter, OpsRecorder, ThroughputReport};
pub use snapshot::{snapshot_json, CounterSnapshot};
pub use table::{render_ascii_chart, TextTable};
