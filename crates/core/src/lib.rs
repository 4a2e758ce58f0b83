//! Model types and problem specification for **Byzantine agreement with
//! homonyms** (Delporte-Gallet et al., PODC 2011).
//!
//! A system has `n` processes sharing `ℓ` *authenticated identifiers*
//! (`1 ≤ ℓ ≤ n`). Processes holding the same identifier are *homonyms*:
//! a receiver can authenticate which identifier a message came from, but not
//! which process behind that identifier sent it. This crate defines:
//!
//! * [`Id`] / [`Pid`] — identifiers (what protocols see) vs. process names
//!   (what only the execution environment sees),
//! * [`IdAssignment`] — which process holds which identifier,
//! * [`SystemConfig`] — the `(n, ℓ, t)` parameters plus the three model
//!   axes of the paper: [`Synchrony`], [`Counting`] (numerate/innumerate)
//!   and [`ByzPower`] (restricted/unrestricted Byzantine senders),
//! * [`Protocol`] — the deterministic round automaton interface every
//!   algorithm in this workspace implements,
//! * [`Inbox`] — per-round received messages, as a multiset (numerate view)
//!   or a set (innumerate view),
//! * [`fabric`] — the `Arc`-shared delivery fabric every execution backend
//!   (lock-step simulator, sharded simulator, delay network) routes
//!   through,
//! * [`exec`] — the tick executor seam ([`Sequential`] and the
//!   persistent thread-[`Pool`]) the lock-step engines fan their work out
//!   with,
//! * [`intern`] — the payload [`Interner`] and identifier bitset
//!   ([`IdBits`]) the hot protocol paths key their evidence tables with,
//! * [`journal`] — durable journals (in-memory and file-backed WAL
//!   backends with seeded fault injection) and deterministic
//!   crash-recovery replay,
//! * [`codec`] — the exact binary wire codec ([`WireEncode`] /
//!   [`WireDecode`]) behind the message/bit-cost instrumentation and the
//!   token-framed delivery path,
//! * [`scenario`] — seeded, serializable scenario schedules (timed
//!   Byzantine/drop/topology/churn events with per-component sub-streams),
//!   the replayable fuzz corpus every execution backend shares,
//! * [`bounds`] — the Table 1 solvability characterization,
//! * [`spec`] — the Byzantine agreement properties (validity, agreement,
//!   termination) and trace-level checkers.
//!
//! # Example
//!
//! ```
//! use homonym_core::{SystemConfig, Synchrony, bounds};
//!
//! // The paper's headline surprise: with t = 1 and ℓ = 4, partially
//! // synchronous agreement is solvable for n = 4 but NOT for n = 5.
//! let mut cfg = SystemConfig::builder(4, 4, 1)
//!     .synchrony(Synchrony::PartiallySynchronous)
//!     .build()
//!     .unwrap();
//! assert!(bounds::solvable(&cfg));
//! cfg.n = 5;
//! assert!(!bounds::solvable(&cfg));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bounds;
pub mod chain;
pub mod codec;
mod config;
mod error;
pub mod exec;
pub mod fabric;
mod id;
pub mod intern;
pub mod journal;
mod message;
mod process;
pub mod scenario;
pub mod spec;
mod value;

pub use chain::{ChainMsg, HeightChain, HeightChainFactory};
pub use codec::{DecodeError, Reader, WireDecode, WireEncode, Writer};
pub use config::{ByzPower, Counting, Synchrony, SystemConfig, SystemConfigBuilder};
pub use error::{AssignmentError, ConfigError};
pub use exec::{Executor, Pool, Sequential};
pub use fabric::{Deliveries, FrameInterner, SharedEnvelope};
pub use id::{Id, IdAssignment, Pid};
pub use intern::{IdBits, Interner};
pub use journal::{FileWal, Journal, JournalEntry, JournalError, MemJournal, Recovered};
pub use message::{Envelope, Inbox, Message, Recipients};
pub use process::{FnFactory, Protocol, ProtocolFactory, Round, Superround};
pub use scenario::{
    sub_seed, DropSpec, RecoveryMode, Schedule, ScheduleEvent, StrategyKind, TimedEvent,
};
pub use value::{Domain, ProperSet, Value};
