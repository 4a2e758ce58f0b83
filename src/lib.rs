//! Umbrella crate for the **Byzantine agreement with homonyms** workspace
//! (Delporte-Gallet, Fauconnier, Guerraoui, Kermarrec, Ruppert, Tran-The —
//! PODC 2011).
//!
//! This crate re-exports the workspace members under stable module names and
//! hosts the runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`).
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `homonym-core` | model types, Table 1 bounds, BA spec |
//! | [`classic`] | `homonym-classic` | unique-identifier baselines (EIG, Phase-King) |
//! | [`sync`] | `homonym-sync` | the synchronous T(A) transformer (Fig. 3) |
//! | [`psync`] | `homonym-psync` | partially synchronous protocols (Figs. 5–7) |
//! | [`sim`] | `homonym-sim` | deterministic simulator, adversaries, harness |
//! | [`delay`] | `homonym-delay` | delay-based partial synchrony (DLS model equivalence) |
//! | [`lower_bounds`] | `homonym-lowerbounds` | executable impossibility scenarios |
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs`, or:
//!
//! ```
//! use homonyms::core::{bounds, SystemConfig};
//!
//! let cfg = SystemConfig::builder(7, 4, 1).build().unwrap();
//! assert!(bounds::solvable(&cfg)); // synchronous: ℓ > 3t
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use homonym_classic as classic;
pub use homonym_core as core;
pub use homonym_delay as delay;
pub use homonym_lowerbounds as lower_bounds;
pub use homonym_psync as psync;
pub use homonym_sim as sim;
pub use homonym_sync as sync;

/// The types most programs need, in one import.
///
/// ```
/// use homonyms::prelude::*;
///
/// let cfg = SystemConfig::builder(4, 4, 1)
///     .synchrony(Synchrony::PartiallySynchronous)
///     .build()
///     .unwrap();
/// let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
/// let mut sim = Simulation::builder(cfg, IdAssignment::unique(4), vec![true; 4])
///     .build_with(&factory);
/// assert!(sim.run(200).verdict.all_hold());
/// ```
pub mod prelude {
    pub use homonym_classic::{Eig, PhaseKing, UniqueRunner};
    pub use homonym_core::{
        bounds, ByzPower, Counting, Domain, Executor, Id, IdAssignment, Inbox, Pid, Pool, Protocol,
        ProtocolFactory, Recipients, Round, Sequential, Synchrony, SystemConfig,
    };
    pub use homonym_delay::{DelayCluster, DelayReport};
    pub use homonym_psync::{
        AgreementFactory, HomonymAgreement, RestrictedAgreement, RestrictedFactory,
    };
    pub use homonym_sim::{
        RandomUntilGst, RunReport, ShardId, ShardReport, ShardSpec, ShardedSimulation, ShotSpec,
        Simulation,
    };
    pub use homonym_sync::{Transformed, TransformedFactory};
}
