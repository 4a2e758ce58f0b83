//! The sizes of the four solo workloads. `n` is fixed; only how many
//! instances a run gets through depends on `--seconds`.

use std::sync::Arc;

use homonym_classic::Eig;
use homonym_core::{
    ChainMsg, Domain, HeightChain, HeightChainFactory, IdAssignment, Protocol, ProtocolFactory,
    Synchrony, SystemConfig,
};
use homonym_psync::{AgreementFactory, BoundedAgreementFactory};
use homonym_sync::{Transformed, TransformedFactory};

use crate::solo::Solo;

const LEDGER_N: usize = 32;
const LEDGER_ELL: usize = 18;
const T: usize = 1;
/// Rounds per height.
const BUDGET: u64 = 32;
const HEIGHTS: u64 = 8;
/// 13 ledgers × 8 heights = 104 decision samples: ten lie beyond p90.
const LEDGER_FLOOR: usize = 13;
/// The victim is crashed and recovered with 64, 128 and 192 rounds
/// journalled.
const CRASH_HEIGHTS: [u64; 3] = [2, 4, 6];

const TEIG_N: usize = 128;
const TEIG_ELL: usize = 4;

fn ledger_decided<F>(procs: &[&HeightChain<F>]) -> u64
where
    F: ProtocolFactory + Clone,
    F::P: Protocol<Value = bool>,
{
    (0..HEIGHTS)
        .filter(|&h| {
            let first = procs[0].ledger_entry(h);
            first.is_some() && procs.iter().all(|p| p.ledger_entry(h) == first)
        })
        .count() as u64
}

fn same_inner<M>(a: &ChainMsg<M, bool>, b: &ChainMsg<M, bool>) -> bool {
    Arc::ptr_eq(&a.inner, &b.inner)
}

/// A durable 8-height ledger over the Figure 5 stack `inner` builds.
fn ledger<F>(inner: F, crash: bool) -> Solo<HeightChainFactory<F>>
where
    F: ProtocolFactory + Clone + Send + Sync + 'static,
    F::P: Protocol<Value = bool> + Clone + std::fmt::Debug + Send + Sync,
{
    let factory = HeightChainFactory::new(inner, BUDGET, HEIGHTS, T);
    Solo {
        max_rounds: factory.round_bound(),
        factory,
        cfg: SystemConfig::builder(LEDGER_N, LEDGER_ELL, T)
            .synchrony(Synchrony::PartiallySynchronous)
            .build()
            .expect("2ℓ > n + 3t"),
        assignment: IdAssignment::stacked(LEDGER_ELL, LEDGER_N).expect("ℓ ≤ n"),
        durable: true,
        rounds_per_decision: BUDGET,
        decisions_per_instance: HEIGHTS,
        crash_heights: if crash { &CRASH_HEIGHTS } else { &[] },
        decided: ledger_decided::<F>,
        same_bundle: same_inner,
        block: 1,
        floor: LEDGER_FLOOR,
        exact: 2,
    }
}

pub fn ledger_bounded(crash: bool) -> Solo<HeightChainFactory<BoundedAgreementFactory<bool>>> {
    let inner = BoundedAgreementFactory::new(LEDGER_N, LEDGER_ELL, T, Domain::binary());
    ledger(inner, crash)
}

pub fn ledger_faithful() -> Solo<HeightChainFactory<AgreementFactory<bool>>> {
    let inner = AgreementFactory::new(LEDGER_N, LEDGER_ELL, T, Domain::binary());
    ledger(inner, false)
}

/// Synchronous `T(EIG)`, one instance per decision, not durable.
pub fn fabric_teig() -> Solo<TransformedFactory<Eig<bool>>> {
    let factory = TransformedFactory::new(Eig::new(TEIG_ELL, T, Domain::binary()), T);
    let max_rounds = factory.round_bound() + 9;
    Solo {
        factory,
        cfg: SystemConfig::builder(TEIG_N, TEIG_ELL, T)
            .build()
            .expect("ℓ > 3t"),
        assignment: IdAssignment::stacked(TEIG_ELL, TEIG_N).expect("ℓ ≤ n"),
        durable: false,
        max_rounds,
        rounds_per_decision: max_rounds,
        decisions_per_instance: 1,
        crash_heights: &[],
        decided: |procs: &[&Transformed<Eig<bool>>]| {
            u64::from(procs.iter().all(|p| p.decision().is_some()))
        },
        same_bundle: |_, _| false,
        block: 104,
        floor: 104,
        exact: 16,
    }
}
