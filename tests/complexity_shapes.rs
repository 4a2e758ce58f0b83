//! Shape assertions for the cost claims `paper_report` prints (E6–E9):
//! not absolute numbers, but the relationships the paper's constructions
//! imply. If an implementation change breaks one of these, the report's
//! narrative is stale.

use homonyms::classic::{Eig, SyncBa, UniqueRunner};
use homonyms::core::{Domain, FnFactory, IdAssignment, Synchrony, SystemConfig};
use homonyms::psync::{AgreementFactory, RestrictedFactory};
use homonyms::sim::{RandomUntilGst, Simulation};
use homonyms::sync::TransformedFactory;

fn run_t_eig(n: usize, ell: usize, t: usize) -> homonyms::sim::RunReport<bool> {
    let factory = TransformedFactory::new(Eig::new(ell, t, Domain::binary()), t);
    let cfg = SystemConfig::builder(n, ell, t).build().unwrap();
    let mut sim = Simulation::builder(cfg, IdAssignment::stacked(ell, n).unwrap(), vec![true; n])
        .build_with(&factory);
    sim.run(factory.round_bound() + 9)
}

#[test]
fn transformer_rounds_are_three_per_simulated_round_plus_relay() {
    // Raw EIG: t + 1 rounds. T(EIG): the deciding round of the phase after
    // the (t + 1)-th simulated round carries the decision, i.e. round
    // 3(t + 1) + 1 zero-based at the earliest; in no case more than one
    // full phase later.
    for (ell, t) in [(4usize, 1usize), (7, 2)] {
        let eig_rounds = t as u64 + 1;
        for n in [ell, ell + 4] {
            let report = run_t_eig(n, ell, t);
            assert!(report.verdict.all_hold());
            let decided = report.all_decided_round.unwrap().index();
            assert!(
                decided >= 3 * eig_rounds,
                "cannot beat the 3× simulation: {decided} vs {}",
                3 * eig_rounds
            );
            assert!(
                decided <= 3 * (eig_rounds + 1) + 1,
                "must not exceed one phase of relay slack: {decided}"
            );
        }
    }
}

#[test]
fn transformer_rounds_do_not_depend_on_n() {
    // The group simulation makes n irrelevant to latency (it only adds
    // message volume).
    let r1 = run_t_eig(4, 4, 1).all_decided_round.unwrap();
    let r2 = run_t_eig(10, 4, 1).all_decided_round.unwrap();
    assert_eq!(r1, r2);
}

#[test]
fn message_volume_scales_quadratically_in_n() {
    // Fixed rounds, all-to-all bundles: messages ≈ rounds · n(n − 1).
    let m4 = run_t_eig(4, 4, 1).messages_sent as f64 / (4.0 * 3.0);
    let m10 = run_t_eig(10, 4, 1).messages_sent as f64 / (10.0 * 9.0);
    let ratio = m10 / m4;
    assert!(
        (0.8..=1.2).contains(&ratio),
        "normalized per-pair volume should be n-invariant, got ratio {ratio}"
    );
}

#[test]
fn raw_eig_beats_the_transformer_in_rounds() {
    let domain = Domain::binary();
    let factory = FnFactory::new(move |id, input| {
        UniqueRunner::new(Eig::new(4, 1, domain.clone()), id, input)
    });
    let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
    let mut sim =
        Simulation::builder(cfg, IdAssignment::unique(4), vec![true; 4]).build_with(&factory);
    let raw = sim.run(10);
    let transformed = run_t_eig(4, 4, 1);
    assert!(
        raw.all_decided_round.unwrap() < transformed.all_decided_round.unwrap(),
        "the simulation overhead must be visible"
    );
}

#[test]
fn fig5_latency_tracks_gst_with_constant_tail() {
    // All-decided-round ≈ gst + c for a constant c (within one phase).
    let run = |gst: u64| {
        let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
        let cfg = SystemConfig::builder(4, 4, 1)
            .synchrony(Synchrony::PartiallySynchronous)
            .build()
            .unwrap();
        let mut sim = Simulation::builder(cfg, IdAssignment::unique(4), vec![true; 4])
            .drops(RandomUntilGst::new(homonyms::core::Round::new(gst), 0.3, 5))
            .build_with(&factory);
        let report = sim.run(gst + factory.round_bound() + 24);
        assert!(report.verdict.all_hold());
        report.all_decided_round.unwrap().index()
    };
    let at_0 = run(0);
    let at_16 = run(16);
    let at_32 = run(32);
    assert!(
        at_16 >= at_0 && at_32 >= at_16,
        "latency is monotone in gst"
    );
    // The tail after stabilization stays within two phases.
    assert!(at_16 - 16 <= at_0 + 16, "{at_16} vs {at_0}");
    assert!(at_32 <= 32 + at_0 + 16, "{at_32} vs {at_0}");
}

#[test]
fn fig7_decides_faster_and_with_fewer_identifiers_than_fig5() {
    // Same n, t, same drop schedule; each protocol at its minimum ℓ.
    let (n, t, gst) = (7usize, 2usize, 8u64);
    let ell5 = (n + 3 * t) / 2 + 1;
    let ell7 = t + 1;
    assert!(ell7 < ell5);

    let fig5 = {
        let factory = AgreementFactory::new(n, ell5, t, Domain::binary());
        let cfg = SystemConfig::builder(n, ell5, t)
            .synchrony(Synchrony::PartiallySynchronous)
            .build()
            .unwrap();
        let mut sim =
            Simulation::builder(cfg, IdAssignment::stacked(ell5, n).unwrap(), vec![true; n])
                .drops(RandomUntilGst::new(homonyms::core::Round::new(gst), 0.3, 9))
                .build_with(&factory);
        sim.run(gst + factory.round_bound() + 24)
    };
    let fig7 = {
        let factory = RestrictedFactory::new(n, ell7, t, Domain::binary());
        let cfg = SystemConfig::builder(n, ell7, t)
            .synchrony(Synchrony::PartiallySynchronous)
            .counting(homonyms::core::Counting::Numerate)
            .byz_power(homonyms::core::ByzPower::Restricted)
            .build()
            .unwrap();
        let mut sim =
            Simulation::builder(cfg, IdAssignment::stacked(ell7, n).unwrap(), vec![true; n])
                .drops(RandomUntilGst::new(homonyms::core::Round::new(gst), 0.3, 9))
                .build_with(&factory);
        sim.run(gst + factory.round_bound() + 24)
    };
    assert!(fig5.verdict.all_hold());
    assert!(fig7.verdict.all_hold());
    // The shape from E9: with everyone a potential leader earlier in the
    // rotation and no decide-relay detour, Figure 7 lands no later.
    assert!(
        fig7.all_decided_round.unwrap() <= fig5.all_decided_round.unwrap(),
        "{:?} vs {:?}",
        fig7.all_decided_round,
        fig5.all_decided_round
    );
}

#[test]
fn eig_message_size_is_the_price_of_n_gt_3t() {
    // EIG's round-r message has O(ℓ^(r-1)) entries: measure the level
    // growth that motivates using it only for small ℓ.
    let algo = Eig::new(7, 2, Domain::binary());
    let mut s = algo.init(homonyms::core::Id::new(1), true);
    let mut sizes = Vec::new();
    for r in 1..=3u64 {
        sizes.push(algo.message(&s, r).len());
        // Feed a full round of honest messages from all identifiers.
        let honest: std::collections::BTreeMap<homonyms::core::Id, _> = homonyms::core::Id::all(7)
            .map(|id| {
                let peer = algo.init(id, id.get() % 2 == 0);
                (id, algo.message(&peer, r))
            })
            .collect();
        s = algo.transition(&s, r, &honest);
    }
    assert_eq!(sizes[0], 1, "round 1 sends the root");
    assert!(sizes[1] >= 6, "round 2 relays level-1 entries: {sizes:?}");
}

#[test]
fn delay_ticks_scale_linearly_with_delta_at_fixed_rounds() {
    // E14 shape: with FixedPacing(Δ) the round count is Δ-independent
    // (the protocol sees identical inboxes), so wall-clock ticks scale
    // exactly linearly in Δ.
    use homonyms::delay::{DelayCluster, EventuallyBounded, FixedPacing};
    let run = |delta: u64| {
        let cfg = SystemConfig::builder(4, 4, 1)
            .synchrony(Synchrony::PartiallySynchronous)
            .build()
            .unwrap();
        let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
        let mut cluster =
            DelayCluster::builder(cfg, IdAssignment::unique(4), vec![true, false, true, false])
                // Calm from tick 0: a pure Δ-scaling measurement.
                .model(EventuallyBounded::new(delta, 0, delta, 7))
                .pacing(FixedPacing::new(delta))
                .build();
        let report = cluster.run(&factory, 200);
        assert!(report.verdict.all_hold());
        (report.rounds, report.ticks)
    };
    let (r1, t1) = run(1);
    let (r3, t3) = run(3);
    assert_eq!(r1, r3, "round count must not depend on Δ");
    assert_eq!(t3, 3 * t1, "ticks must scale linearly with Δ");
}

#[test]
fn doubling_pacing_pays_at_most_a_constant_factor_over_the_known_bound() {
    // E14 shape: guess-and-double burns at most a geometric sum of
    // too-short rounds, so its tick cost stays within a small factor of
    // the omniscient FixedPacing(Δ) run.
    use homonyms::delay::{AlwaysBounded, DelayCluster, DoublingPacing, FixedPacing};
    let delta = 4u64;
    let cfg = SystemConfig::builder(4, 4, 1)
        .synchrony(Synchrony::PartiallySynchronous)
        .build()
        .unwrap();
    let factory = AgreementFactory::new(4, 4, 1, Domain::binary());
    let inputs = vec![true, false, true, false];

    let mut known = DelayCluster::builder(cfg, IdAssignment::unique(4), inputs.clone())
        .model(AlwaysBounded::new(delta, 5))
        .pacing(FixedPacing::new(delta))
        .build();
    let known_report = known.run(&factory, 400);
    assert!(known_report.verdict.all_hold());

    let mut blind = DelayCluster::builder(cfg, IdAssignment::unique(4), inputs)
        .model(AlwaysBounded::new(delta, 5))
        .pacing(DoublingPacing::new(1, 4))
        .build();
    let blind_report = blind.run(&factory, 400);
    assert!(blind_report.verdict.all_hold());

    assert!(
        blind_report.ticks <= 6 * known_report.ticks,
        "guess-and-double cost {} vs omniscient {}",
        blind_report.ticks,
        known_report.ticks
    );
}
