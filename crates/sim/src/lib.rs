//! Simulation harness for the P2DRM evaluation.
//!
//! The paper (a workshop protocol paper) published no quantitative
//! evaluation; EXPERIMENTS.md defines the experiment set E1–E10 and this
//! crate provides everything those experiments need:
//!
//! * [`workload`] — Zipf content popularity;
//! * [`metrics`] — log-bucketed latency histograms and summaries;
//! * [`runner`] — multi-threaded purchase throughput (E3) against one
//!   shared `&self` provider;
//! * [`adversary`] — the honest-but-curious provider trying to profile
//!   users from its own purchase log (E7);
//! * [`report`] — ASCII tables + JSON series for EXPERIMENTS.md.
//!
//! The `experiments` binary (`cargo run -p p2drm-sim --bin experiments`)
//! regenerates every table/figure artifact.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod chaos;
pub mod json;
pub mod metrics;
pub mod openloop;
pub mod report;
pub mod runner;
pub mod workload;

pub use adversary::{linkability_experiment, LinkabilityReport};
pub use metrics::{Histogram, Summary};
pub use openloop::{OpenLoopConfig, OpenLoopResult};
pub use report::Table;
pub use runner::{
    purchase_throughput, DispatchMode, StoreBackend, ThroughputConfig, ThroughputResult,
};
pub use workload::Zipf;
