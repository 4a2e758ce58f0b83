//! Partially synchronous Byzantine agreement with homonyms
//! (Sections 4 and 5 of the paper).
//!
//! Four components:
//!
//! * [`EchoBroadcast`] — the authenticated broadcast of Proposition 6
//!   (à la Srikanth–Toueg, generalized to identifiers): `⟨init m⟩` then
//!   `⟨echo m, r, i⟩`, joining at `ℓ − 2t` distinct identifiers and
//!   accepting at `ℓ − t`, with the correctness / unforgeability / relay
//!   guarantees the agreement protocol builds on. Requires `ℓ > 3t`.
//! * [`HomonymAgreement`] — the Figure 5 protocol: phases of four
//!   superrounds (propose / lock / vote / ack+decide), identifier quorums
//!   of size `ℓ − t`, homonym co-leaders, a voting superround, and a
//!   `t + 1`-identifier decide relay. Solves Byzantine agreement in the
//!   basic partially synchronous model whenever `2ℓ > n + 3t` (Theorem 13
//!   shows this is optimal), even for innumerate processes.
//! * [`MultBroadcast`] — the Figure 6 authenticated broadcast *with
//!   multiplicities* for numerate processes facing restricted Byzantine
//!   senders: `Accept(i, α, m, r)` carries an estimate `α` of how many
//!   holders of identifier `i` broadcast `m`, with the unicity /
//!   correctness / relay / unforgeability properties of Theorem 29.
//! * [`RestrictedAgreement`] — the Figure 7 protocol: the same phase
//!   skeleton as Figure 5 but with *witness counts* (`n − t` process
//!   multiplicities) instead of identifier quorums. Safety needs only
//!   `n > 3t`; liveness needs `ℓ > t` (Theorem 15 shows `ℓ > t` is
//!   optimal for numerate processes against restricted Byzantine
//!   processes).
//!
//! All protocols here implement [`Protocol`](homonym_core::Protocol): one
//! bundle message broadcast to all per round, as the round model requires
//! (a correct process sends at most one message per recipient per round).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod agreement;
mod bounded;
mod bounded_restricted;
mod broadcast;
#[cfg(test)]
mod codec_golden;
pub mod invariants;
mod mult_broadcast;
#[cfg(test)]
mod proptests;
mod restricted;

pub use agreement::{AgreementFactory, Bundle, HomonymAgreement, Payload};
pub use bounded::{
    BoundedAgreement, BoundedAgreementFactory, BoundedBundle, BoundedEchoBroadcast,
    DEFAULT_WINDOW_SUPERROUNDS,
};
pub use bounded_restricted::{
    BoundedMultBroadcast, BoundedRestrictedAgreement, BoundedRestrictedBundle,
    BoundedRestrictedFactory,
};
pub use broadcast::{Accept, EchoBroadcast, EchoItem};
pub use mult_broadcast::{MultAccept, MultBroadcast, MultPart};
pub use restricted::{RestrictedAgreement, RestrictedBundle, RestrictedFactory, RestrictedPayload};
