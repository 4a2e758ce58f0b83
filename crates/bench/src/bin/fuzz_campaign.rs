//! Schedule-driven failure-injection campaign across the protocol
//! families.
//!
//! Where the standard suite enumerates a fixed grid, this binary *draws*
//! whole scenario **schedules**: random solvable `(n, ℓ, t)` cells, random
//! identifier assignments, inputs, Byzantine placements, strategy
//! compositions, stabilization times — plus timed mid-run events
//! (processes defecting, strategy switches, partitions forming and
//! healing), all generated by [`Scenario::draw`] from one per-iteration
//! seed via independent sub-streams (`homonym_core::scenario::sub_seed`),
//! so no two components share RNG state and any failure replays exactly
//! from its seed line.
//!
//! On a violation the campaign writes three artifacts next to the working
//! directory — `FUZZ_FAIL_<family>_<seed>.schedule` (the replay line),
//! `…min.schedule` (the ddmin-shrunk minimal counterexample), and
//! `….dot` (the trace-graph timeline) — then panics with the replay line.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p homonym-bench --bin fuzz_campaign [iters] [base_seed]
//! ```
//!
//! Defaults: 150 iterations per protocol family, base seed 1.

use homonym_bench::{
    fig5_factory, fig7_factory, psync_cfg, restricted_cfg, sync_cfg, t_eig_factory,
};
use homonym_core::exec::Pool;
use homonym_core::scenario::{stream, sub_seed};
use homonym_core::{
    Domain, IdAssignment, Pid, Protocol, ProtocolFactory, Round, SystemConfig, WireDecode,
    WireEncode,
};
use homonym_sim::adversary::ReplayFuzzer;
use homonym_sim::scenario::{
    run_scenario, run_scenario_with, scenario_dot, shrink, Scenario, ScenarioReport,
};
use homonym_sim::{RandomUntilGst, Simulation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one drawn schedule; returns `(decision round, message count)`.
/// Writes the failure artifacts and panics with a replay line on any
/// property violation or unexpected model breach.
fn run_drawn_schedule<P, F>(
    family: &str,
    seed: u64,
    cfg: SystemConfig,
    factory: &F,
    slack: u64,
) -> (Option<u64>, u64)
where
    P: Protocol<Value = bool> + Send + 'static,
    P::Msg: WireEncode + WireDecode,
    F: ProtocolFactory<P = P>,
{
    let scenario = Scenario::draw(seed, cfg, slack);
    let rep = run_scenario(&scenario, factory);
    if !rep.verdict.is_pass() {
        let min = shrink(&scenario, factory, &rep.verdict);
        report_failure(family, seed, slack, &scenario, &min, &rep);
    }
    (
        rep.report.all_decided_round.map(|r| r.index()),
        rep.report.messages_sent,
    )
}

/// Writes the three failure artifacts and panics with the replay line.
fn report_failure(
    family: &str,
    seed: u64,
    slack: u64,
    scenario: &Scenario,
    minimal: &Scenario,
    rep: &ScenarioReport,
) -> ! {
    let tag = format!("FUZZ_FAIL_{}_{seed:016x}", family.replace('/', "-"));
    let header = format!(
        "# family={family} seed={seed} n={} ell={} t={} slack={slack}\n\
         # replay: Scenario::draw({seed}, cfg, {slack}), then swap in the schedule below\n",
        scenario.cfg.n, scenario.cfg.ell, scenario.cfg.t,
    );
    let _ = std::fs::write(
        format!("{tag}.schedule"),
        format!("{header}{}\n", scenario.schedule.to_hex()),
    );
    let _ = std::fs::write(
        format!("{tag}.min.schedule"),
        format!("{header}{}\n", minimal.schedule.to_hex()),
    );
    let _ = std::fs::write(format!("{tag}.dot"), scenario_dot(scenario, rep));
    panic!(
        "VIOLATION family={family} seed={seed} {}: {:?}\n\
         schedule={}\nminimal={}",
        scenario.summary(),
        rep.verdict,
        scenario.schedule.to_hex(),
        minimal.schedule.to_hex(),
    );
}

/// Runs `iters` schedule draws for each protocol family starting at
/// `base_seed`. Returns (runs, worst decision round, total messages).
pub fn campaign(iters: u64, base_seed: u64, verbose: bool) -> (u64, u64, u64) {
    let mut runs = 0u64;
    let mut worst = 0u64;
    let mut messages = 0u64;

    for k in 0..iters {
        let seed = base_seed.wrapping_add(k).wrapping_mul(0x9e37_79b9);

        // Family 1: T(EIG), synchronous, random solvable cell (ℓ > 3t).
        {
            let fam_seed = seed ^ 0xA;
            let mut rng = StdRng::seed_from_u64(sub_seed(fam_seed, stream::CELL));
            let t = rng.gen_range(1..=2usize);
            let ell = 3 * t + rng.gen_range(1..=2usize);
            let n = ell + rng.gen_range(0..=3usize);
            let factory = t_eig_factory(ell, t);
            let slack = factory.round_bound() + 9;
            let (decided, msgs) = run_drawn_schedule(
                "sync/T(EIG)",
                fam_seed,
                sync_cfg(n, ell, t),
                &factory,
                slack,
            );
            runs += 1;
            worst = worst.max(decided.unwrap_or(0));
            messages += msgs;
            if verbose {
                println!("sync    seed={fam_seed:016x} n={n} ell={ell} t={t} decided={decided:?}");
            }
        }

        // Family 2: Figure 5, partially synchronous (2ℓ > n + 3t).
        {
            let fam_seed = seed ^ 0xB;
            let mut rng = StdRng::seed_from_u64(sub_seed(fam_seed, stream::CELL));
            let t = 1usize;
            let ell = rng.gen_range(4..=6usize);
            let n_hi = 2 * ell - 3 * t - 1;
            let n = rng.gen_range(ell..=n_hi);
            let factory = fig5_factory(n, ell, t);
            let slack = factory.round_bound() + 24;
            let (decided, msgs) = run_drawn_schedule(
                "psync/Fig5",
                fam_seed,
                psync_cfg(n, ell, t),
                &factory,
                slack,
            );
            runs += 1;
            worst = worst.max(decided.unwrap_or(0));
            messages += msgs;
            if verbose {
                println!("psync   seed={fam_seed:016x} n={n} ell={ell} t={t} decided={decided:?}");
            }
        }

        // Family 3: Figure 7, restricted + numerate (ℓ > t, n > 3t).
        {
            let fam_seed = seed ^ 0xC;
            let mut rng = StdRng::seed_from_u64(sub_seed(fam_seed, stream::CELL));
            let t = rng.gen_range(1..=2usize);
            let ell = t + rng.gen_range(1..=2usize);
            let n = 3 * t + 1 + rng.gen_range(0..=3usize);
            let factory = fig7_factory(n, ell.min(n), t);
            let slack = factory.round_bound() + 24;
            let (decided, msgs) = run_drawn_schedule(
                "restricted/Fig7",
                fam_seed,
                restricted_cfg(n, ell.min(n), t),
                &factory,
                slack,
            );
            runs += 1;
            worst = worst.max(decided.unwrap_or(0));
            messages += msgs;
            if verbose {
                println!("restr   seed={fam_seed:016x} n={n} ell={ell} t={t} decided={decided:?}");
            }
        }
    }
    (runs, worst, messages)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut number = |default: u64| match args.next() {
        None => default,
        Some(arg) => arg.parse().unwrap_or_else(|_| {
            eprintln!("usage: fuzz_campaign [iters] [base_seed] — `{arg}` is not a number");
            std::process::exit(2);
        }),
    };
    let iters = number(150);
    let base_seed = number(1);

    println!(
        "fuzz campaign: {iters} schedule draws × 3 families, base seed {base_seed} \
         (every draw replayable from its seed; failures write FUZZ_FAIL_* artifacts)"
    );
    let (runs, worst, messages) = campaign(iters, base_seed, false);
    println!(
        "{runs} adversarial runs, 0 violations; worst decision round {worst}; \
         {messages} total messages"
    );

    // A quick domain check: the binary-domain scoping of the schedule
    // generator is not load-bearing for the engines; re-run a few draws
    // on a 4-value domain via Fig. 5, with a properly derived drop seed.
    let domain = Domain::new(vec![0u8, 1, 2, 3]);
    let factory = homonym_psync::AgreementFactory::new(5, 5, 1, domain);
    let mut sim = Simulation::builder(
        psync_cfg(5, 5, 1),
        IdAssignment::unique(5),
        vec![3u8, 0, 2, 0, 1],
    )
    .byzantine([Pid::new(4)], ReplayFuzzer::new(base_seed, 2))
    .drops(RandomUntilGst::new(
        Round::new(8),
        0.3,
        sub_seed(base_seed, stream::DROPS),
    ))
    .build_with(&factory);
    let report = sim.run(8 + factory.round_bound() + 24);
    assert!(report.verdict.all_hold());
    println!("multi-valued domain check: {}", report.verdict);

    // Parallel-tick smoke: one drawn schedule (a fixed seed derived from
    // the base) replayed with the engine's tick fanned across a 4-worker
    // pool — the churned schedule (mid-run strategy switches, drop and
    // topology mutations) must replay to the identical trace digest and
    // verdict, byte for byte.
    let factory = fig5_factory(6, 5, 1);
    let slack = factory.round_bound() + 24;
    let scenario = Scenario::draw(base_seed ^ 0xD, psync_cfg(6, 5, 1), slack);
    let seq = run_scenario(&scenario, &factory);
    let pooled = run_scenario_with(&scenario, &factory, Pool::new(4));
    assert_eq!(
        seq.verdict, pooled.verdict,
        "Pool(4) replay verdict diverged"
    );
    assert_eq!(
        seq.trace_digest, pooled.trace_digest,
        "Pool(4) replay trace digest diverged"
    );
    println!(
        "parallel-tick smoke: Pool(4) replay digest {:#018x} matches sequential",
        pooled.trace_digest
    );
}

#[cfg(test)]
mod tests {
    use super::campaign;
    use homonym_bench::{sync_cfg, t_eig_factory};
    use homonym_core::scenario::Schedule;
    use homonym_sim::scenario::{run_scenario, Scenario};

    #[test]
    fn short_campaign_is_clean() {
        let (runs, _, messages) = campaign(2, 42, false);
        assert_eq!(runs, 6);
        assert!(messages > 0);
    }

    #[test]
    fn campaign_is_deterministic_per_seed() {
        assert_eq!(campaign(2, 7, false), campaign(2, 7, false));
    }

    #[test]
    fn a_drawn_schedule_replays_identically_under_pool() {
        use homonym_bench::{fig5_factory, psync_cfg};
        use homonym_core::exec::Pool;
        use homonym_sim::scenario::run_scenario_with;

        let factory = fig5_factory(6, 5, 1);
        let scenario = Scenario::draw(0xD00D, psync_cfg(6, 5, 1), 40);
        let seq = run_scenario(&scenario, &factory);
        for workers in [1usize, 4] {
            let pooled = run_scenario_with(&scenario, &factory, Pool::new(workers));
            assert_eq!(seq.verdict, pooled.verdict, "verdict at {workers} workers");
            assert_eq!(
                seq.trace_digest, pooled.trace_digest,
                "digest at {workers} workers"
            );
        }
    }

    #[test]
    fn a_drawn_schedule_replays_from_its_hex_line() {
        // The replay recipe the failure artifacts document: re-draw the
        // scenario from the seed, swap in the decoded schedule, re-run.
        let factory = t_eig_factory(4, 1);
        let slack = 11;
        let scenario = Scenario::draw(0xFEED, sync_cfg(5, 4, 1), slack);
        let hex = scenario.schedule.to_hex();
        let a = run_scenario(&scenario, &factory);

        let mut replayed = Scenario::draw(0xFEED, sync_cfg(5, 4, 1), slack);
        replayed.schedule = Schedule::from_hex(&hex).expect("replay line decodes");
        let b = run_scenario(&replayed, &factory);
        assert_eq!(a.verdict, b.verdict);
        assert_eq!(a.trace_digest, b.trace_digest);
    }
}
