//! Property tests for the delivery fabric: `Inbox::collect_shared` must be
//! observationally identical to `Inbox::collect` under both counting
//! models, whatever the delivery multiset — including when many shared
//! envelopes alias one `Arc` allocation, which is exactly how the engine
//! fans out a broadcast — and the lock-step engines' cast-and-class tick
//! must be observationally identical to routing one envelope per delivery
//! through the [`Deliveries`] plane.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use homonyms::core::exec::{Executor, Pool, Sequential};
use homonyms::core::journal::encode_deliveries_entry;
use homonyms::core::{
    ByzPower, Counting, Deliveries, Envelope, FnFactory, FrameInterner, Id, IdAssignment, Inbox,
    Pid, Protocol, Recipients, Round, SharedEnvelope, SystemConfig,
};
use homonyms::sim::adversary::{AdvCtx, Adversary, ByzTarget, Emission};
use homonyms::sim::{DropPolicy, RandomUntilGst, Simulation, Topology};
use proptest::prelude::*;

/// A delivery list strategy: up to 64 envelopes over 4 identifiers and a
/// tiny payload alphabet, so duplicate `(id, payload)` pairs (the
/// interesting case for multiplicities) are common.
fn deliveries() -> impl Strategy<Value = Vec<(u16, u8)>> {
    proptest::collection::vec((1u16..=4, 0u8..=5), 0..=64)
}

fn owned(raw: &[(u16, u8)]) -> Vec<Envelope<u8>> {
    raw.iter()
        .map(|&(src, msg)| Envelope {
            src: Id::new(src),
            msg,
        })
        .collect()
}

fn shared(raw: &[(u16, u8)]) -> Vec<SharedEnvelope<u8>> {
    raw.iter()
        .map(|&(src, msg)| SharedEnvelope::new(Id::new(src), msg))
        .collect()
}

/// Shared envelopes where equal payloads alias one allocation, as the
/// engine produces when one broadcast fans out to every recipient.
fn aliased(raw: &[(u16, u8)]) -> Vec<SharedEnvelope<u8>> {
    let pool: Vec<Arc<u8>> = (0u8..=5).map(Arc::new).collect();
    raw.iter()
        .map(|&(src, msg)| SharedEnvelope::shared(Id::new(src), Arc::clone(&pool[msg as usize])))
        .collect()
}

proptest! {
    #[test]
    fn collect_shared_equals_collect(raw in deliveries(), innumerate in any::<bool>()) {
        let counting = if innumerate {
            Counting::Innumerate
        } else {
            Counting::Numerate
        };
        let from_owned = Inbox::collect(owned(&raw), counting);
        let from_shared = Inbox::collect_shared(shared(&raw), counting);
        let from_aliased = Inbox::collect_shared(aliased(&raw), counting);
        prop_assert_eq!(&from_owned, &from_shared);
        prop_assert_eq!(&from_owned, &from_aliased);
        // Observational equality, not just structural: every query agrees.
        prop_assert_eq!(from_owned.total(), from_shared.total());
        prop_assert_eq!(from_owned.len(), from_shared.len());
        for (id, msg, count) in from_owned.iter() {
            prop_assert_eq!(from_shared.count(id, msg), count);
            prop_assert!(from_aliased.contains(id, msg));
        }
        let owned_flat: Vec<_> = from_owned.iter().map(|(i, m, c)| (i, *m, c)).collect();
        let shared_flat: Vec<_> = from_shared.iter().map(|(i, m, c)| (i, *m, c)).collect();
        prop_assert_eq!(owned_flat, shared_flat, "canonical iteration order agrees");
    }

    #[test]
    fn deliveries_buckets_equal_direct_collection(raw in deliveries(), innumerate in any::<bool>()) {
        let counting = if innumerate {
            Counting::Innumerate
        } else {
            Counting::Numerate
        };
        // Round-robin the deliveries over 3 recipients through the dense
        // buckets, and compare each drained inbox against collecting that
        // recipient's slice directly.
        let n = 3usize;
        let mut buckets: Deliveries<u8> = Deliveries::new(n);
        let mut per_recipient: Vec<Vec<Envelope<u8>>> = vec![Vec::new(); n];
        for (k, env) in shared(&raw).into_iter().enumerate() {
            let to = k % n;
            per_recipient[to].push(Envelope {
                src: env.src,
                msg: *env.msg,
            });
            buckets.push(Pid::new(to), env);
        }
        for (to, expected) in per_recipient.into_iter().enumerate() {
            let drained = buckets.take_inbox(Pid::new(to), counting);
            prop_assert_eq!(drained, Inbox::collect(expected, counting));
        }
    }
}

/// One random lock-step scenario for the class path ≡ per-delivery plane
/// property: who holds which identifier, what every correct process and
/// the Byzantine ones emit each round, which links are cut, how lossy the
/// network is, who crashes after round 0, and both model axes.
#[derive(Clone, Debug)]
struct Scenario {
    assignment: IdAssignment,
    /// The last `byz` pids are Byzantine.
    byz: usize,
    /// Per process (ignored for Byzantine ones): the round's emissions —
    /// one `All`, or `Group`s of distinct identifiers.
    scripts: Vec<Vec<(Recipients, u32)>>,
    byz_emissions: Vec<(Pid, ByzTarget, u32)>,
    cuts: BTreeSet<(usize, usize)>,
    seed: u64,
    drop_pct: u8,
    crashed: BTreeSet<Pid>,
    byz_power: ByzPower,
    counting: Counting,
}

/// Both of a scenario's rounds are lossy (the drop policy stabilizes after).
const ROUNDS: u64 = 2;

impl Scenario {
    fn n(&self) -> usize {
        self.assignment.n()
    }

    fn byz_set(&self) -> BTreeSet<Pid> {
        (self.n() - self.byz..self.n()).map(Pid::new).collect()
    }

    fn cfg(&self) -> SystemConfig {
        SystemConfig::builder(self.n(), self.assignment.ell(), self.byz)
            .counting(self.counting)
            .byz_power(self.byz_power)
            .build()
            .unwrap()
    }

    fn topology(&self) -> Topology {
        let n = self.n();
        let edges = (0..n)
            .flat_map(|a| (a + 1..n).map(move |b| (a, b)))
            .filter(|edge| !self.cuts.contains(edge))
            .map(|(a, b)| (Pid::new(a), Pid::new(b)));
        Topology::with_edges(n, edges)
    }

    fn drops(&self, queries: &Queries) -> RecordingDrops {
        RecordingDrops {
            inner: RandomUntilGst::new(
                Round::new(ROUNDS),
                f64::from(self.drop_pct) / 100.0,
                self.seed,
            ),
            queries: Arc::clone(queries),
        }
    }
}

fn scenario() -> impl Strategy<Value = Scenario> {
    // Raw draws are reduced modulo `n` / `ℓ` / the Byzantine count below,
    // so one flat strategy covers every size.
    let script = (
        any::<bool>(),
        0u32..3,
        proptest::collection::btree_map(0usize..12, 0u32..3, 0..=3),
    );
    let emission = (0usize..12, 0u8..3, 0usize..12, 0u32..3);
    (2usize..=12).prop_flat_map(move |n| {
        (
            (Just(n), 1usize..=n, 0usize..=2.min(n - 1)),
            proptest::collection::vec(0usize..12, n),
            proptest::collection::vec(script.clone(), n),
            proptest::collection::vec(emission.clone(), 0..=6),
            proptest::collection::btree_set((0usize..12, 0usize..12), 0..=4),
            (any::<u64>(), 0u8..=60),
            proptest::collection::vec(any::<bool>(), n),
            (any::<bool>(), any::<bool>()),
        )
            .prop_map(
                |((n, ell, byz), ids, scripts, emissions, cuts, (seed, drop_pct), crash, axes)| {
                    // Every identifier has a holder; the rest are drawn.
                    let ids = (0..n)
                        .map(|k| Id::from_index(if k < ell { k } else { ids[k] % ell }))
                        .collect();
                    let scripts = scripts
                        .into_iter()
                        .map(|(all, payload, groups)| {
                            if all {
                                return vec![(Recipients::All, payload)];
                            }
                            let by_id: BTreeMap<usize, u32> =
                                groups.into_iter().map(|(id, m)| (id % ell, m)).collect();
                            by_id
                                .into_iter()
                                .map(|(id, m)| (Recipients::Group(Id::from_index(id)), m))
                                .collect()
                        })
                        .collect();
                    let byz_emissions = emissions
                        .into_iter()
                        .filter(|_| byz > 0)
                        .map(|(from, kind, target, payload)| {
                            let to = match kind {
                                0 => ByzTarget::One(Pid::new(target % n)),
                                1 => ByzTarget::All,
                                _ => ByzTarget::Group(Id::from_index(target % ell)),
                            };
                            (Pid::new(n - 1 - from % byz), to, payload)
                        })
                        .collect();
                    Scenario {
                        assignment: IdAssignment::new(ell, ids).unwrap(),
                        byz,
                        scripts,
                        byz_emissions,
                        cuts: cuts
                            .into_iter()
                            .map(|(a, b)| (a % n, b % n))
                            .map(|(a, b)| (a.min(b), a.max(b)))
                            .collect(),
                        seed,
                        drop_pct,
                        crashed: (0..n - byz).filter(|&k| crash[k]).map(Pid::new).collect(),
                        byz_power: if axes.0 {
                            ByzPower::Restricted
                        } else {
                            ByzPower::Unrestricted
                        },
                        counting: if axes.1 {
                            Counting::Innumerate
                        } else {
                            Counting::Numerate
                        },
                    }
                },
            )
    })
}

type Queries = Arc<Mutex<Vec<(Round, Pid, Pid)>>>;
type Inboxes = Arc<Mutex<BTreeMap<(Round, Pid), Inbox<u32>>>>;

/// The seeded lossy policy, remembering the exact query sequence.
struct RecordingDrops {
    inner: RandomUntilGst,
    queries: Queries,
}

impl DropPolicy for RecordingDrops {
    fn drops(&mut self, round: Round, from: Pid, to: Pid) -> bool {
        self.queries.lock().unwrap().push((round, from, to));
        self.inner.drops(round, from, to)
    }

    fn gst(&self) -> Round {
        self.inner.gst()
    }
}

/// A correct process replaying its script every round and filing every
/// inbox it is handed. Its proposal is its pid — the only way a protocol
/// learns one.
#[derive(Debug)]
struct Scripted {
    id: Id,
    pid: Pid,
    script: Vec<(Recipients, u32)>,
    inboxes: Inboxes,
}

impl Protocol for Scripted {
    type Msg = u32;
    type Value = usize;

    fn id(&self) -> Id {
        self.id
    }

    fn send(&mut self, _round: Round) -> Vec<(Recipients, u32)> {
        self.script.clone()
    }

    fn receive(&mut self, round: Round, inbox: &Inbox<u32>) {
        let mut inboxes = self.inboxes.lock().unwrap();
        inboxes.insert((round, self.pid), inbox.clone());
    }

    fn decision(&self) -> Option<usize> {
        None
    }
}

/// The Byzantine side of a scenario: the same emissions every round, and
/// every inbox filed like the correct processes'.
struct ScriptedByz {
    emissions: Vec<(Pid, ByzTarget, u32)>,
    inboxes: Inboxes,
}

impl Adversary<u32> for ScriptedByz {
    fn send(&mut self, _ctx: &AdvCtx<'_>) -> Vec<Emission<u32>> {
        self.emissions
            .iter()
            .map(|&(from, to, msg)| Emission::new(from, to, msg))
            .collect()
    }

    fn receive(&mut self, round: Round, inboxes: &BTreeMap<Pid, Inbox<u32>>) {
        let mut filed = self.inboxes.lock().unwrap();
        for (&pid, inbox) in inboxes {
            filed.insert((round, pid), inbox.clone());
        }
    }
}

/// Everything a tick lets anyone observe.
#[derive(Debug, PartialEq)]
struct Observed {
    /// What every live correct and every Byzantine process received.
    inboxes: BTreeMap<(Round, Pid), Inbox<u32>>,
    /// `(sent, delivered, dropped)` over the run, and `sent` per round.
    tallies: (u64, u64, u64),
    per_round_sent: Vec<u64>,
    drop_queries: Vec<(Round, Pid, Pid)>,
    trace: Vec<(Round, Pid, Id, Pid, u32, bool)>,
    /// Per process: its journal's records (none for Byzantine ones).
    journals: Vec<Vec<Vec<u8>>>,
}

/// The scenario through `Simulation::step` — the cast-and-class pipeline.
fn through_the_engine<E: Executor>(scn: &Scenario, exec: E) -> Observed {
    let inboxes: Inboxes = Arc::default();
    let queries: Queries = Arc::default();
    let (scripts, filed) = (scn.scripts.clone(), Arc::clone(&inboxes));
    let factory = FnFactory::new(move |id, pid: usize| Scripted {
        id,
        pid: Pid::new(pid),
        script: scripts[pid].clone(),
        inboxes: Arc::clone(&filed),
    });
    let adversary = ScriptedByz {
        emissions: scn.byz_emissions.clone(),
        inboxes: Arc::clone(&inboxes),
    };
    let mut sim = Simulation::builder(scn.cfg(), scn.assignment.clone(), (0..scn.n()).collect())
        .byzantine(scn.byz_set(), adversary)
        .drops(scn.drops(&queries))
        .topology(scn.topology())
        .record_trace(true)
        .durable(0)
        .executor(exec)
        .build_with(&factory);
    sim.step();
    for &pid in &scn.crashed {
        sim.crash(pid).unwrap();
    }
    sim.step();
    let report = sim.report();
    let observed = Observed {
        inboxes: inboxes.lock().unwrap().clone(),
        tallies: (
            report.messages_sent,
            report.messages_delivered,
            report.messages_dropped,
        ),
        per_round_sent: sim.per_round_sent().to_vec(),
        drop_queries: queries.lock().unwrap().clone(),
        trace: sim
            .trace()
            .unwrap()
            .deliveries()
            .iter()
            .map(|d| (d.round, d.from, d.src_id, d.to, *d.msg, d.dropped))
            .collect(),
        journals: Pid::all(scn.n())
            .map(|pid| sim.journal(pid).map_or(Vec::new(), |j| j.recover().records))
            .collect(),
    };
    observed
}

/// The same scenario the per-delivery way: expand every emission into one
/// wire per recipient, push one framed envelope per planned wire onto the
/// `Deliveries` plane, drain one inbox per recipient, and encode one
/// journal record per recipient with the reference encoder.
fn through_the_plane(scn: &Scenario) -> Observed {
    let n = scn.n();
    let (byz, topology) = (scn.byz_set(), scn.topology());
    let queries: Queries = Arc::default();
    let mut drops = scn.drops(&queries);
    let mut frames: FrameInterner<u32> = FrameInterner::new();
    let mut plane: Deliveries<u32> = Deliveries::new(n);
    let mut observed = Observed {
        inboxes: BTreeMap::new(),
        tallies: (0, 0, 0),
        per_round_sent: Vec::new(),
        drop_queries: Vec::new(),
        trace: Vec::new(),
        journals: vec![Vec::new(); n],
    };
    let mut down: BTreeSet<Pid> = BTreeSet::new();
    for r in (0..ROUNDS).map(Round::new) {
        let live = |pid: &Pid| !byz.contains(pid) && !down.contains(pid);
        let mut wires: Vec<(Pid, Pid, Arc<u32>)> = Vec::new();
        for from in Pid::all(n).filter(live) {
            for &(recipients, msg) in &scn.scripts[from.index()] {
                let msg = Arc::new(msg);
                for to in recipients.expand(&scn.assignment) {
                    wires.push((from, to, Arc::clone(&msg)));
                }
            }
        }
        let mut byz_sent: BTreeSet<(Pid, Pid)> = BTreeSet::new();
        for &(from, target, msg) in &scn.byz_emissions {
            let msg = Arc::new(msg);
            for to in target.expand(&scn.assignment) {
                if scn.byz_power == ByzPower::Restricted && !byz_sent.insert((from, to)) {
                    continue;
                }
                wires.push((from, to, Arc::clone(&msg)));
            }
        }
        let mut staged: Vec<Vec<(Id, Arc<u32>)>> = vec![Vec::new(); n];
        let mut sent = 0;
        for (from, to, msg) in wires {
            let (src, tok) = (scn.assignment.id_of(from), frames.tok_for(&msg));
            if !topology.connected(from, to) {
                continue;
            }
            let to_self = from == to;
            if !to_self {
                sent += 1;
            }
            let dropped = !to_self && (drops.drops(r, from, to) || down.contains(&to));
            observed.trace.push((r, from, src, to, *msg, dropped));
            if dropped {
                observed.tallies.2 += 1;
                continue;
            }
            if !to_self {
                observed.tallies.1 += 1;
            }
            plane.push(to, SharedEnvelope::framed(src, Arc::clone(&msg), tok));
            staged[to.index()].push((src, msg));
        }
        observed.tallies.0 += sent;
        observed.per_round_sent.push(sent);
        for pid in Pid::all(n).filter(|pid| !down.contains(pid)) {
            let inbox = plane.take_inbox(pid, scn.counting);
            observed.inboxes.insert((r, pid), inbox);
            if !byz.contains(&pid) {
                let record = encode_deliveries_entry(r, &staged[pid.index()]);
                observed.journals[pid.index()].push(record);
            }
        }
        plane.clear();
        down.clone_from(&scn.crashed);
    }
    observed.drop_queries = queries.lock().unwrap().clone();
    observed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Routing a round as casts and delivery classes is unobservable: per
    /// recipient the inboxes, per run the tallies, the drop-policy query
    /// sequence and the trace, and per journal the record bytes are those
    /// of the per-delivery plane — under `Sequential` and under a pool.
    #[test]
    fn class_path_equals_per_delivery_plane(scn in scenario()) {
        let plane = through_the_plane(&scn);
        for engine in [through_the_engine(&scn, Sequential), through_the_engine(&scn, Pool::new(3))] {
            prop_assert_eq!(&engine.drop_queries, &plane.drop_queries);
            prop_assert_eq!(&engine.trace, &plane.trace);
            prop_assert_eq!(engine.tallies, plane.tallies);
            prop_assert_eq!(&engine.per_round_sent, &plane.per_round_sent);
            prop_assert_eq!(&engine.inboxes, &plane.inboxes);
            prop_assert_eq!(&engine.journals, &plane.journals);
        }
    }
}
