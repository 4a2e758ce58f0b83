//! Deterministic round-based simulator for homonym message-passing systems.
//!
//! The paper's model is an abstract lock-step round system; this crate
//! realizes it exactly:
//!
//! * [`Simulation`] — the engine. Each round it (1) collects the broadcast
//!   of every correct process, (2) asks the [`Adversary`] for the Byzantine
//!   processes' messages, (3) applies the [`Topology`], the restricted-
//!   Byzantine clamp, and the [`DropPolicy`], (4) builds per-process
//!   [`Inbox`](homonym_core::Inbox)es under the configured counting model,
//!   and (5) delivers them.
//! * [`DropPolicy`] — the basic partially synchronous model of Dwork,
//!   Lynch and Stockmeyer: any message may be lost, but only finitely many
//!   (operationally: none at or after a global stabilization round).
//! * [`Adversary`] — full Byzantine power: per-recipient messages, and in
//!   the unrestricted model arbitrarily many per recipient per round. The
//!   [`adversary`] module ships a strategy library (silent, crash,
//!   correct-mimicking, equivocation, homonym-clone spam, replay fuzzing,
//!   scripted).
//! * [`Trace`] — per-delivery records supporting the replay adversaries
//!   used by the Figure 4 partition construction.
//! * [`shards`] — the sharded multi-shot scheduler: K independent
//!   agreement instances interleaved tick by tick under one scheduler,
//!   with pipelining and per-shard cost roll-ups.
//! * [`harness`] — run-and-check: executes a protocol against a whole
//!   scenario grid and compares the empirical verdicts with the Table 1
//!   prediction.
//! * [`scenario`] — schedule replay: materializes a serialized
//!   [`Schedule`](homonym_core::Schedule) of timed disruptions against the
//!   engine's mutation hooks, with a ddmin shrinker that bisects failing
//!   schedules to minimal counterexamples and a DOT trace-graph artifact.
//!
//! Everything is deterministic given the seed: protocols are deterministic
//! by contract, and all randomness (fuzz adversaries, random drop policies)
//! flows from explicitly seeded PRNGs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adversary;
#[cfg(test)]
mod adversary_tests;
mod drops;
mod engine;
pub mod harness;
pub mod par;
pub mod scenario;
pub mod shards;
mod topology;
mod trace;

pub use adversary::{AdvCtx, Adversary, ByzTarget, Emission};
pub use drops::{
    Both, DropPolicy, IsolateUntil, NoDrops, PartitionUntil, RandomUntilGst, ScriptedDrops,
};
pub use engine::{ChurnError, RunReport, Simulation, SimulationBuilder};
pub use scenario::{Scenario, ScenarioReport, ScenarioVerdict};
pub use shards::{
    ChurnOp, ChurnPlan, ShardDelivery, ShardId, ShardReport, ShardSpec, ShardedSimulation,
    ShardedTrace, ShotReport, ShotSpec,
};
pub use topology::Topology;
pub use trace::{Delivery, Trace};
