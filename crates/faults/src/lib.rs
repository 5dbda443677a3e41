//! Deterministic fault injection for recovery tests.
//!
//! A seeded [`FaultPlan`] holds one [`Schedule`] per named injection
//! *site* (`"transport.drop_reply"`, `"kv.fail_put"`, …) and decides,
//! per call, whether the fault fires. Every decision is a pure function
//! of `(seed, site, call number)`, so the same seed replays the same
//! fault schedule and the same [`FaultPlan::trace`] — a failing seed is
//! a repro, not an anecdote.
//!
//! The plan is exercised through wrappers at two layers:
//!
//! * [`FaultTransport`] around any [`p2drm_core::service::Transport`] —
//!   dropped requests, dropped/duplicated/torn replies, mid-write
//!   resets, and synthesized busy-envelope storms (`tests/model.rs`
//!   arms every site);
//! * [`FaultKv`] around any [`p2drm_store::ConcurrentKv`] — failed puts
//!   (`tests/model.rs` cuts a purchase, transfer or revocation at one
//!   row write across restarts; `tests/durability.rs` a publish; plus
//!   [`crash::tear_shard_tail`] and
//!   [`p2drm_store::WalShardedKv::inject_sync_failure`] for the durable
//!   backend's poisoning/replay paths).
//!
//! None of the wrappers change behavior when their sites stay
//! [`Schedule::Never`]; they are strictly pass-through.

mod kv;
mod plan;
mod transport;

pub mod crash;

pub use kv::{sites as kv_sites, FaultKv};
pub use plan::{Decision, FaultPlan, Schedule};
pub use transport::{sites as transport_sites, FaultTransport};
