//! Workspace smoke test: tiny end-to-end agreement runs driven purely
//! through the umbrella crate's prelude, proving the re-export surface
//! (`homonyms::prelude`) is sufficient to configure, run, and check a
//! protocol without naming any member crate directly.

use homonyms::prelude::*;

/// One synchronous `T(EIG)` run at `n = 4, t = 1, ℓ = 4`: solvable
/// (`ℓ > 3t`), every correct process decides, and the three BA
/// properties hold.
#[test]
fn synchronous_agreement_via_prelude_only() {
    let cfg = SystemConfig::builder(4, 4, 1)
        .build()
        .expect("n = 4, ℓ = 4, t = 1 is a valid synchronous system");
    assert!(bounds::solvable(&cfg), "synchronous: ℓ = 4 > 3t = 3");

    let factory = TransformedFactory::new(Eig::new(4, 1, Domain::binary()), 1);
    let mut sim = Simulation::builder(cfg, IdAssignment::unique(4), vec![true, true, false, true])
        .build_with(&factory);
    let report: RunReport<bool> = sim.run(50);

    assert!(
        report.verdict.all_hold(),
        "clean run must satisfy BA: {:?}",
        report.verdict
    );
    assert_eq!(report.outcome.decisions.len(), 4, "all four decide");
    let decided: Vec<bool> = report.outcome.decisions.values().map(|&(v, _)| v).collect();
    assert!(
        decided.windows(2).all(|w| w[0] == w[1]),
        "agreement: {decided:?}"
    );
}

/// The same configuration through the sharded engine's re-exports: one
/// shard running one shot must reach the identical decision set as the
/// simulator.
#[test]
fn sharded_simulation_matches_simulator_via_prelude() {
    let cfg = SystemConfig::builder(4, 4, 1).build().unwrap();
    let inputs = vec![true, true, false, true];

    let factory = TransformedFactory::new(Eig::new(4, 1, Domain::binary()), 1);
    let mut sim =
        Simulation::builder(cfg, IdAssignment::unique(4), inputs.clone()).build_with(&factory);
    let simulated = sim.run(50);

    let mut sharded = ShardedSimulation::new();
    sharded.add_shard(
        ShardSpec::new(cfg, IdAssignment::unique(4)).shot(ShotSpec::new(inputs).horizon(50)),
        factory,
    );
    let reports: Vec<ShardReport<bool>> = sharded.run(50);
    let shot = &reports[0].shots[0].report;

    assert!(shot.verdict.all_hold());
    assert_eq!(shot.outcome.decisions, simulated.outcome.decisions);
}
