//! Delay-based partial synchrony and the simulation of basic lossy rounds.
//!
//! The paper (Section 2) adopts the *basic* partially synchronous model of
//! Dwork, Lynch and Stockmeyer: lock-step rounds in which a finite but
//! unbounded number of messages may fail to be delivered. It then notes
//! that this choice is without loss of generality:
//!
//! > the model in which message delivery times are eventually bounded by a
//! > known constant and the model in which message delivery times are
//! > always bounded by an unknown constant can both simulate the basic
//! > partially synchronous model
//!
//! This crate makes that equivalence executable. It provides
//!
//! * [`DelayModel`] — per-message delivery-time models:
//!   [`EventuallyBounded`] (delays at most a **known** `Δ`, but only from
//!   an unknown calm point onward) and [`AlwaysBounded`] (delays at most
//!   an **unknown** `Δ`, from the start), plus the degenerate [`Instant`]
//!   used for parity tests against the lock-step simulator;
//! * [`RoundPacing`] — how processes translate wall-clock ticks back into
//!   rounds: [`FixedPacing`] (round length `D`, for the known-constant
//!   model: pick `D ≥ Δ`) and [`DoublingPacing`] (round lengths that grow
//!   geometrically, for the unknown-constant model: eventually the round
//!   outlasts the unknown `Δ`);
//! * [`DelayCluster`] — a discrete-event driver that runs the same
//!   deterministic [`Protocol`](homonym_core::Protocol) automata as
//!   [`homonym_sim::Simulation`], but over a network with per-message
//!   delays. A message tagged for round `r` that arrives after the
//!   receiver has closed round `r` is *late* and discarded — exactly a
//!   dropped message of the basic model.
//!
//! The simulation argument is visible in the [`DelayReport`]: under either
//! model/pacing pair, the number of late messages is finite and lateness
//! ceases from some round on (`clean_from`), so the protocols built for
//! the basic model — `homonym_psync::HomonymAgreement` with
//! `2ℓ > n + 3t`, `homonym_psync::RestrictedAgreement` with `ℓ > t` —
//! decide unchanged. The `model_equivalence` integration tests exercise
//! both directions.
//!
//! # Example
//!
//! ```
//! use homonym_core::{Domain, IdAssignment, SystemConfig, Synchrony};
//! use homonym_delay::{DelayCluster, DoublingPacing, AlwaysBounded};
//! use homonym_psync::AgreementFactory;
//!
//! // n = 4, ℓ = 4, t = 1: 2ℓ = 8 > n + 3t = 7, solvable.
//! let cfg = SystemConfig::builder(4, 4, 1)
//!     .synchrony(Synchrony::PartiallySynchronous)
//!     .build()
//!     .unwrap();
//! let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
//! // Delays always below an (unknown to the pacing) bound of 3 ticks;
//! // processes double their round length until rounds outlast it.
//! let report = DelayCluster::builder(cfg, IdAssignment::unique(4), vec![true, false, true, false])
//!     .model(AlwaysBounded::new(3, 7))
//!     .pacing(DoublingPacing::new(1, 4))
//!     .build()
//!     .run(&factory, 200);
//! assert!(report.verdict.all_hold());
//! assert!(report.clean_from().is_some());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod driver;
mod model;
mod net;
mod pacing;
pub mod suite;

pub use driver::{DelayCluster, DelayClusterBuilder, DelayReport};
pub use model::{AlwaysBounded, DelayModel, EventuallyBounded, Instant, LinkTargeted};
pub use net::InFlight;
pub use pacing::{DoublingPacing, FixedPacing, RoundPacing};
pub use suite::{run_delay_suite, DelayScenarioResult, DelaySuiteParams, DelaySuiteResult};
