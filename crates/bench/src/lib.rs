//! Shared helpers for the `paper_report` and `fuzz_campaign` binaries.
//!
//! `cargo run --release -p homonym-bench --bin paper_report` prints every
//! table and series of the paper in one go and asserts the reproduced
//! claims. Wall-clock measurement lives in `perfbench/` (see
//! `BENCHMARK.json`); the exact, deterministic wire and state numbers
//! are pinned by this crate's tests.

use std::sync::Arc;

use homonym_classic::Eig;
use homonym_core::{
    bounds, ByzPower, Counting, Deliveries, Domain, IdAssignment, Pid, Protocol, ProtocolFactory,
    Round, SharedEnvelope, Synchrony, SystemConfig,
};
use homonym_delay::{
    AlwaysBounded, DelayCluster, DelayReport, DoublingPacing, EventuallyBounded, FixedPacing,
};
use homonym_psync::{AgreementFactory, BoundedAgreementFactory, RestrictedFactory};
use homonym_sim::harness::{run_standard_suite, SuiteParams, SuiteResult};
use homonym_sim::{RandomUntilGst, RunReport, Simulation};
use homonym_sync::TransformedFactory;

/// A `T(EIG)` factory for `ell` identifiers tolerating `t` faults.
pub fn t_eig_factory(ell: usize, t: usize) -> TransformedFactory<Eig<bool>> {
    TransformedFactory::new(Eig::new(ell, t, Domain::binary()), t)
}

/// The Figure 5 factory for `(n, ℓ, t)`.
pub fn fig5_factory(n: usize, ell: usize, t: usize) -> AgreementFactory<bool> {
    AgreementFactory::new(n, ell, t, Domain::binary())
}

/// The Figure 7 factory for `(n, ℓ, t)`.
pub fn fig7_factory(n: usize, ell: usize, t: usize) -> RestrictedFactory<bool> {
    RestrictedFactory::new(n, ell, t, Domain::binary())
}

/// A synchronous configuration.
pub fn sync_cfg(n: usize, ell: usize, t: usize) -> SystemConfig {
    SystemConfig::builder(n, ell, t)
        .build()
        .expect("valid parameters")
}

/// A partially synchronous configuration.
pub fn psync_cfg(n: usize, ell: usize, t: usize) -> SystemConfig {
    SystemConfig::builder(n, ell, t)
        .synchrony(Synchrony::PartiallySynchronous)
        .build()
        .expect("valid parameters")
}

/// A restricted-Byzantine, numerate, partially synchronous configuration.
pub fn restricted_cfg(n: usize, ell: usize, t: usize) -> SystemConfig {
    SystemConfig::builder(n, ell, t)
        .synchrony(Synchrony::PartiallySynchronous)
        .counting(Counting::Numerate)
        .byz_power(ByzPower::Restricted)
        .build()
        .expect("valid parameters")
}

/// One clean (failure-free, unanimous-input) run of `T(EIG)`; returns the
/// report for round/message accounting.
pub fn run_t_eig_clean(n: usize, ell: usize, t: usize) -> RunReport<bool> {
    let factory = t_eig_factory(ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let mut sim =
        Simulation::builder(sync_cfg(n, ell, t), assignment, vec![true; n]).build_with(&factory);
    sim.run(factory.round_bound() + 9)
}

/// One clean run of the Figure 5 protocol with the given stabilization
/// round (messages drop with probability 0.3 before it).
pub fn run_fig5(n: usize, ell: usize, t: usize, gst: u64, seed: u64) -> RunReport<bool> {
    let factory = fig5_factory(n, ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let inputs = (0..n).map(|k| k % 2 == 0).collect();
    let mut sim = Simulation::builder(psync_cfg(n, ell, t), assignment, inputs)
        .drops(RandomUntilGst::new(Round::new(gst), 0.3, seed))
        .build_with(&factory);
    sim.run(gst + factory.round_bound() + 24)
}

/// One clean run of the Figure 7 protocol.
pub fn run_fig7(n: usize, ell: usize, t: usize, gst: u64, seed: u64) -> RunReport<bool> {
    let factory = fig7_factory(n, ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let inputs = (0..n).map(|k| k % 2 == 0).collect();
    let mut sim = Simulation::builder(restricted_cfg(n, ell, t), assignment, inputs)
        .drops(RandomUntilGst::new(Round::new(gst), 0.3, seed))
        .build_with(&factory);
    sim.run(gst + factory.round_bound() + 24)
}

/// One Figure 5 run on the **known-bound** delay model (delays ≤ `delta`
/// from `calm_tick` on, chaos before) with rounds of `delta` ticks.
pub fn run_fig5_known_bound(
    n: usize,
    ell: usize,
    t: usize,
    delta: u64,
    calm_tick: u64,
    seed: u64,
) -> DelayReport<bool> {
    let factory = fig5_factory(n, ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let inputs = (0..n).map(|k| k % 2 == 0).collect();
    let mut cluster = DelayCluster::builder(psync_cfg(n, ell, t), assignment, inputs)
        .model(EventuallyBounded::new(delta, calm_tick, 20 * delta, seed))
        .pacing(FixedPacing::new(delta))
        .build();
    cluster.run(&factory, calm_tick / delta + factory.round_bound() + 24)
}

/// One Figure 5 run on the **unknown-bound** delay model (delays ≤ `delta`
/// always) with guess-and-double pacing that never reads `delta`.
pub fn run_fig5_unknown_bound(
    n: usize,
    ell: usize,
    t: usize,
    delta: u64,
    seed: u64,
) -> DelayReport<bool> {
    let factory = fig5_factory(n, ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let inputs = (0..n).map(|k| k % 2 == 0).collect();
    let mut cluster = DelayCluster::builder(psync_cfg(n, ell, t), assignment, inputs)
        .model(AlwaysBounded::new(delta, seed))
        .pacing(DoublingPacing::new(1, 8))
        .build();
    // Doubling reaches `delta` within 8·log2(delta) rounds.
    let catch_up = 8 * (64 - delta.leading_zeros() as u64 + 1);
    cluster.run(&factory, catch_up + factory.round_bound() + 24)
}

/// Exact wire/memory profile of one hand-driven, full-delivery Figure 5
/// run: frame bits per round, bundle emissions, and per-round process
/// state samples, driven until every process decides and then `tail`
/// further steady-state rounds.
///
/// The paper report's faithful-vs-bounded table and this crate's pin
/// tests both consume this: the faithful stack rebroadcasts its whole
/// echo history every round (bits/round grows without bound), the
/// bounded stack only its watermark window (bits/round and state flat),
/// and the profile makes both curves visible in one schema.
pub struct WireProfile {
    /// Round by which every process had decided.
    pub decided_round: u64,
    /// Total rounds driven (`decided_round + 1 + tail`).
    pub rounds: u64,
    /// Broadcast emissions (one bundle each, fanned out to all `n`).
    pub bundles_sent: u64,
    /// Exact frame bits summed over every emission (counted once per
    /// broadcast — the `Arc` fan-out shares the frame with every
    /// recipient, exactly as the sharded engine's `wire_bits` accounting
    /// does).
    pub total_bits: u64,
    /// Exact frame bits per round, in round order.
    pub per_round_bits: Vec<u64>,
    /// Sum of [`Protocol::state_bits`] across processes after the last
    /// round.
    pub state_bits: u64,
    /// Largest per-round state sample over the run.
    pub peak_state_bits: u64,
}

/// [`WireProfile`] of the faithful Figure 5 stack at
/// `(n, ℓ = n/2 + 2, t = 1)` with split inputs.
pub fn fig5_wire_profile(n: usize, tail: u64) -> WireProfile {
    let ell = n / 2 + 2;
    let factory = fig5_factory(n, ell, 1);
    let bound = factory.round_bound();
    profile_run(&factory, n, ell, bound + 64, tail, |_| {})
}

/// [`WireProfile`] of the bounded-storage Figure 5 stack
/// ([`BoundedAgreementFactory`]) at the same parameters.
pub fn fig5_bounded_wire_profile(n: usize, tail: u64) -> WireProfile {
    let ell = n / 2 + 2;
    let factory = BoundedAgreementFactory::new(n, ell, 1, Domain::binary());
    let bound = factory.round_bound();
    profile_run(&factory, n, ell, bound + 64, tail, |_| {})
}

/// Drives the run; `on_frame` sees every emitted message once, in
/// emission order.
fn profile_run<F>(
    factory: &F,
    n: usize,
    ell: usize,
    max_rounds: u64,
    tail: u64,
    mut on_frame: impl FnMut(&<F::P as Protocol>::Msg),
) -> WireProfile
where
    F: ProtocolFactory,
    F::P: Protocol<Value = bool>,
    <F::P as Protocol>::Msg: homonym_core::codec::WireEncode,
{
    let cfg = psync_cfg(n, ell, 1);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let mut procs: Vec<F::P> = (0..n)
        .map(|i| factory.spawn(assignment.id_of(Pid::new(i)), i % 2 == 0))
        .collect();
    let mut deliveries = Deliveries::new(n);
    let mut decided_round = None;
    let mut per_round_bits = Vec::new();
    let mut bundles_sent = 0u64;
    let mut total_bits = 0u64;
    let (mut state_bits, mut peak_state_bits) = (0u64, 0u64);
    let mut r = 0u64;
    while r < max_rounds {
        let round = Round::new(r);
        deliveries.clear();
        let mut round_bits = 0u64;
        for (i, proc_) in procs.iter_mut().enumerate() {
            let src = assignment.id_of(Pid::new(i));
            for (recipients, msg) in proc_.send_shared(round) {
                bundles_sent += 1;
                round_bits += homonym_core::codec::frame_bits(&*msg);
                on_frame(&msg);
                for to in recipients.expand(&assignment) {
                    deliveries.push(to, SharedEnvelope::shared(src, Arc::clone(&msg)));
                }
            }
        }
        total_bits += round_bits;
        per_round_bits.push(round_bits);
        for (i, proc_) in procs.iter_mut().enumerate() {
            let inbox = deliveries.take_inbox(Pid::new(i), cfg.counting);
            proc_.receive(round, &inbox);
        }
        state_bits = procs.iter().map(|p| p.state_bits()).sum();
        peak_state_bits = peak_state_bits.max(state_bits);
        if decided_round.is_none() && procs.iter().all(|p| p.decision().is_some()) {
            decided_round = Some(r);
        }
        r += 1;
        if let Some(d) = decided_round {
            if r >= d + 1 + tail {
                break;
            }
        }
    }
    let decided_round = decided_round.expect("profiled run must decide");
    WireProfile {
        decided_round,
        rounds: r,
        bundles_sent,
        total_bits,
        per_round_bits,
        state_bits,
        peak_state_bits,
    }
}

/// Runs the standard adversary suite for a synchronous `T(EIG)` cell.
pub fn suite_t_eig(n: usize, ell: usize, t: usize, seed: u64) -> SuiteResult<bool> {
    let cfg = sync_cfg(n, ell, t);
    let factory = t_eig_factory(ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let domain = Domain::binary();
    run_standard_suite(
        &factory,
        &SuiteParams {
            cfg,
            assignment: &assignment,
            domain: &domain,
            horizon: factory.round_bound() + 9,
            gst: 0,
            seed,
        },
    )
}

/// Runs the standard adversary suite for a partially synchronous Figure 5
/// cell.
pub fn suite_fig5(n: usize, ell: usize, t: usize, gst: u64, seed: u64) -> SuiteResult<bool> {
    let cfg = psync_cfg(n, ell, t);
    let factory = fig5_factory(n, ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let domain = Domain::binary();
    run_standard_suite(
        &factory,
        &SuiteParams {
            cfg,
            assignment: &assignment,
            domain: &domain,
            horizon: gst + factory.round_bound() + 24,
            gst,
            seed,
        },
    )
}

/// Runs the standard adversary suite for a restricted Figure 7 cell.
pub fn suite_fig7(n: usize, ell: usize, t: usize, gst: u64, seed: u64) -> SuiteResult<bool> {
    let cfg = restricted_cfg(n, ell, t);
    let factory = fig7_factory(n, ell, t);
    let assignment = IdAssignment::stacked(ell, n).expect("ℓ ≤ n");
    let domain = Domain::binary();
    run_standard_suite(
        &factory,
        &SuiteParams {
            cfg,
            assignment: &assignment,
            domain: &domain,
            horizon: gst + factory.round_bound() + 24,
            gst,
            seed,
        },
    )
}

/// Formats a solvability cell for the report: predicted vs empirical.
pub fn cell_line(cfg: &SystemConfig, empirical: &str) -> String {
    format!(
        "n={:<2} ell={:<2} t={} | predicted {:<10} | empirical {}",
        cfg.n,
        cfg.ell,
        cfg.t,
        if bounds::solvable(cfg) {
            "solvable"
        } else {
            "unsolvable"
        },
        empirical
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use homonym_core::codec::{decode_frame, encode_frame};
    use homonym_psync::Bundle;

    #[test]
    fn clean_runs_decide() {
        assert!(run_t_eig_clean(5, 4, 1).verdict.all_hold());
        assert!(run_fig5(4, 4, 1, 4, 1).verdict.all_hold());
        assert!(run_fig7(4, 2, 1, 4, 1).verdict.all_hold());
    }

    #[test]
    fn cell_line_mentions_prediction() {
        let line = cell_line(&sync_cfg(4, 4, 1), "ok");
        assert!(line.contains("solvable"));
    }

    /// The wire codec's exact frame sizes on the Figure 5 corpus at
    /// n = 32 (ℓ = 18, t = 1) — every bundle of a split-input
    /// full-delivery run up to the deciding round, a mix of init-bearing,
    /// echo-heavy and steady-state bundles: any change to the bundle
    /// layout or the varint framing moves these integers. (The n = 128
    /// point — 3 072 bundles, 3 043 212 bytes — holds too but takes 20 s
    /// unoptimized.)
    #[test]
    fn fig5_codec_corpus_bytes_are_pinned() {
        let factory = fig5_factory(32, 18, 1);
        let horizon = factory.round_bound() + 24;
        let corpus = profile_run(&factory, 32, 18, horizon, 0, |b: &Bundle<bool>| {
            let back: Bundle<bool> =
                decode_frame(&encode_frame(b)).expect("own frames must decode");
            assert_eq!(&back, b, "decode(encode(b)) == b");
        });
        assert_eq!(corpus.bundles_sent, 768);
        assert_eq!(corpus.total_bits, 8 * 215_052);
    }

    /// Faithful vs. bounded Figure 5 at n = 32 with a 128-round
    /// steady-state tail: same decision round, the bounded stack's
    /// bits/round is flat while the faithful one grows, and bounded
    /// state stays a fraction of faithful state.
    #[test]
    fn bounded_stack_bits_are_flat_and_pinned() {
        let tail = 128;
        let faithful = fig5_wire_profile(32, tail);
        let bounded = fig5_bounded_wire_profile(32, tail);
        let mid = |p: &WireProfile| p.per_round_bits[(p.decided_round + tail / 2) as usize];
        let end = |p: &WireProfile| *p.per_round_bits.last().expect("profiled rounds");

        for p in [&faithful, &bounded] {
            assert_eq!(p.decided_round, 23);
            assert_eq!(p.rounds, 152);
            assert_eq!(p.bundles_sent, 4864);
        }
        assert_eq!(faithful.total_bits, 72_194_608);
        assert_eq!(bounded.total_bits, 29_157_424);
        assert_eq!((mid(&faithful), end(&faithful)), (543_232, 948_736));
        assert_eq!((mid(&bounded), end(&bounded)), (205_568, 205_568));
        // A ratio, not an integer: the remembered-handle accounting of
        // the bounded receive path is free to move by a percent.
        assert!(
            bounded.peak_state_bits as f64 <= faithful.peak_state_bits as f64 / 3.5,
            "bounded peak state {} vs faithful {}",
            bounded.peak_state_bits,
            faithful.peak_state_bits
        );
    }
}
