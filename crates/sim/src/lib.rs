//! Test and example support for the P2DRM workspace.
//!
//! Nothing here measures: numbers come from the one benchmark ledger
//! (`BENCHMARK.json`, `benchmark/`) and the paper's tables are asserted
//! in `tests/paper_tables.rs`. This crate holds what integration tests
//! and examples share:
//!
//! * [`workload`] — Zipf content popularity (`examples/music_store.rs`);
//! * [`adversary`] — the honest-but-curious provider trying to profile
//!   users from the purchase requests it receives (E7, asserted in the
//!   module's own tests; `examples/music_store.rs`), and the byte-level
//!   corruption helpers `tests/wire_robustness.rs` feeds to the wire
//!   service.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod workload;

pub use workload::Zipf;
