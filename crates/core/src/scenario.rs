//! Seeded scenario schedules: reproducible, serializable event scripts.
//!
//! A [`Schedule`] is a timestamped list of mid-run disruptions — processes
//! turning Byzantine, Byzantine strategies switching, drop-policy shifts
//! (partitions forming and healing), topology edits, and shard churn —
//! generated from a **single seed** and replayable from a single hex line.
//! This is the ewok-style scenario corpus the fuzz harness drives: the
//! schedule is the whole scenario, so a failing run is reproduced by
//! re-decoding its schedule, not by re-rolling RNG state.
//!
//! # Sub-streams
//!
//! Every component of a scenario (assignment, inputs, Byzantine set,
//! drops, strategy, events, …) draws from its **own** RNG stream, derived
//! from the scenario seed via [`sub_seed`] (a splitmix64 finalizer over
//! `seed ⊕ mix(component)`). Two components never share a stream, which
//! kills the seed-reuse class of bug where, e.g., the drop decisions are
//! correlated with the input draw because both consumed the same `StdRng`.
//!
//! # Scope
//!
//! Schedules describe *binary-valued* agreement scenarios (`bool` inputs),
//! which is the domain every fuzzed protocol family in this workspace
//! shares. The event vocabulary is engine-agnostic: the lock-step
//! [`Simulation`], the sharded engine, and any future event-driven
//! backend replay the same corpus.
//!
//! [`Simulation`]: https://docs.rs/homonym-sim

use std::collections::BTreeSet;
use std::fmt;

use crate::codec::{
    decode_frame, encode_frame, DecodeError, Reader, WireDecode, WireEncode, Writer,
};
use crate::{Pid, Round};

/// Splitmix64 finalizer: a bijective avalanche mix.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed for one scenario component.
///
/// The derivation is a splitmix64 avalanche over `seed ⊕ mix64(component)`,
/// so distinct components yield decorrelated streams even for adjacent
/// seeds. Components are the [`stream`] constants; ad-hoc callers may use
/// any `u64` tag not colliding with them.
pub fn sub_seed(seed: u64, component: u64) -> u64 {
    mix64(seed ^ mix64(component))
}

/// Component tags for [`sub_seed`]: one per independent scenario stream.
pub mod stream {
    /// Identifier-assignment draw.
    pub const ASSIGNMENT: u64 = 1;
    /// Correct-process input draw.
    pub const INPUTS: u64 = 2;
    /// Byzantine-set draw.
    pub const BYZ: u64 = 3;
    /// Message-drop decisions (the `RandomUntilGst` stream).
    pub const DROPS: u64 = 4;
    /// Byzantine-strategy draw.
    pub const STRATEGY: u64 = 5;
    /// Timed-event draw (what happens, and when).
    pub const EVENTS: u64 = 6;
    /// Family-cell parameter draw (which `(n, ℓ, t)` inside a family).
    pub const CELL: u64 = 7;
    /// Shard-churn draw (which shards restart, with which inputs).
    pub const SHARDS: u64 = 8;
    /// Crash/recover draw (which pid crashes, when, and how it rejoins).
    pub const CRASHES: u64 = 9;
}

/// How a crashed process rejoins the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryMode {
    /// Restore from the last durable snapshot plus the journal suffix —
    /// the process rejoins with its exact pre-crash state and stays
    /// *correct* (no fault budget consumed).
    Durable,
    /// Rejoin with a fresh automaton and no memory of the past. The
    /// process was observably faulty, so it consumes one unit of the
    /// shared `|faulty| ≤ t` budget (alongside the Byzantine set).
    Amnesiac,
}

impl RecoveryMode {
    /// A short label for traces and DOT artifacts.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryMode::Durable => "durable",
            RecoveryMode::Amnesiac => "amnesiac",
        }
    }
}

impl WireEncode for RecoveryMode {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(match self {
            RecoveryMode::Durable => 0,
            RecoveryMode::Amnesiac => 1,
        });
    }
}

impl WireDecode for RecoveryMode {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            0 => Ok(RecoveryMode::Durable),
            1 => Ok(RecoveryMode::Amnesiac),
            tag => Err(DecodeError::BadTag {
                what: "RecoveryMode",
                tag,
            }),
        }
    }
}

/// A serializable description of a Byzantine strategy.
///
/// This is the *data* half of the sim crate's adversary library: each
/// variant names a strategy and carries exactly the parameters needed to
/// rebuild it against a protocol factory at replay time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StrategyKind {
    /// Byzantine processes send nothing (crash from round 0).
    Silent,
    /// Run the real protocol with the given adversarial inputs.
    Mimic {
        /// Input per Byzantine process.
        inputs: Vec<(Pid, bool)>,
    },
    /// Two personas per Byzantine process; `split` sees input `true`.
    Equivocator {
        /// Correct processes shown the `true` persona.
        split: BTreeSet<Pid>,
    },
    /// Many personas per Byzantine process, all sent to everyone.
    CloneSpammer {
        /// One persona input per entry.
        inputs: Vec<bool>,
    },
    /// Duplicate every intercepted frame `copies` times.
    Flooder {
        /// Copies per flooded frame.
        copies: u32,
    },
    /// Replay mutated captured frames.
    ReplayFuzzer {
        /// Mutation stream seed.
        seed: u64,
        /// Frames injected per round.
        burst: u32,
    },
    /// Replay genuine frames `delay` rounds late.
    StaleReplayer {
        /// Rounds to hold a captured frame.
        delay: u64,
        /// Replayed frames per round.
        cap: u32,
    },
    /// Behave as `inner` until `at`, then go silent.
    CrashAt {
        /// First silent round.
        at: Round,
        /// Pre-crash behaviour.
        inner: Box<StrategyKind>,
    },
    /// Run several strategies at once.
    Compose(Vec<StrategyKind>),
}

impl StrategyKind {
    /// A short label for reports, mirroring the sim adversary names.
    pub fn label(&self) -> String {
        match self {
            StrategyKind::Silent => "silent".into(),
            StrategyKind::Mimic { .. } => "mimic".into(),
            StrategyKind::Equivocator { .. } => "equivocator".into(),
            StrategyKind::CloneSpammer { .. } => "clone_spammer".into(),
            StrategyKind::Flooder { .. } => "flooder".into(),
            StrategyKind::ReplayFuzzer { .. } => "replay_fuzzer".into(),
            StrategyKind::StaleReplayer { .. } => "stale_replayer".into(),
            StrategyKind::CrashAt { inner, .. } => format!("crash({})", inner.label()),
            StrategyKind::Compose(parts) => {
                let names: Vec<String> = parts.iter().map(|p| p.label()).collect();
                format!("compose({})", names.join("+"))
            }
        }
    }
}

impl WireEncode for StrategyKind {
    fn encode(&self, w: &mut Writer) {
        match self {
            StrategyKind::Silent => w.put_u8(0),
            StrategyKind::Mimic { inputs } => {
                w.put_u8(1);
                inputs.encode(w);
            }
            StrategyKind::Equivocator { split } => {
                w.put_u8(2);
                split.encode(w);
            }
            StrategyKind::CloneSpammer { inputs } => {
                w.put_u8(3);
                inputs.encode(w);
            }
            StrategyKind::Flooder { copies } => {
                w.put_u8(4);
                copies.encode(w);
            }
            StrategyKind::ReplayFuzzer { seed, burst } => {
                w.put_u8(5);
                seed.encode(w);
                burst.encode(w);
            }
            StrategyKind::StaleReplayer { delay, cap } => {
                w.put_u8(6);
                delay.encode(w);
                cap.encode(w);
            }
            StrategyKind::CrashAt { at, inner } => {
                w.put_u8(7);
                at.encode(w);
                inner.encode(w);
            }
            StrategyKind::Compose(parts) => {
                w.put_u8(8);
                parts.encode(w);
            }
        }
    }
}

impl WireDecode for StrategyKind {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.take_u8()? {
            0 => StrategyKind::Silent,
            1 => StrategyKind::Mimic {
                inputs: Vec::decode(r)?,
            },
            2 => StrategyKind::Equivocator {
                split: BTreeSet::decode(r)?,
            },
            3 => StrategyKind::CloneSpammer {
                inputs: Vec::decode(r)?,
            },
            4 => StrategyKind::Flooder {
                copies: u32::decode(r)?,
            },
            5 => StrategyKind::ReplayFuzzer {
                seed: u64::decode(r)?,
                burst: u32::decode(r)?,
            },
            6 => StrategyKind::StaleReplayer {
                delay: u64::decode(r)?,
                cap: u32::decode(r)?,
            },
            7 => StrategyKind::CrashAt {
                at: Round::decode(r)?,
                inner: Box::new(StrategyKind::decode(r)?),
            },
            8 => StrategyKind::Compose(Vec::decode(r)?),
            tag => {
                return Err(DecodeError::BadTag {
                    what: "StrategyKind",
                    tag,
                })
            }
        })
    }
}

/// A serializable description of a message-drop policy.
///
/// Probabilities are carried as **permille** (`0..=1000`) so the codec
/// stays float-free and the encoding is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DropSpec {
    /// Nothing is dropped (the fully synchronous model).
    None,
    /// Drop each non-self message with probability `p_permille / 1000`
    /// before `until`, from the sub-stream tagged `stream`.
    Random {
        /// Drop probability in permille (`0..=1000`).
        p_permille: u16,
        /// Stabilization round: no drops at or after it.
        until: Round,
        /// Sub-stream tag mixed with the scenario seed via [`sub_seed`].
        stream: u64,
    },
    /// Cut every edge crossing between `sides` until `heal`.
    Partition {
        /// The partition classes (need not cover all processes).
        sides: Vec<BTreeSet<Pid>>,
        /// First round of restored connectivity.
        heal: Round,
    },
    /// Drop everything to and from `pids` until `heal`.
    Isolate {
        /// The isolated processes.
        pids: BTreeSet<Pid>,
        /// First round of restored connectivity.
        heal: Round,
    },
}

impl DropSpec {
    /// The stabilization round of the described policy: no drops at or
    /// after it.
    pub fn gst(&self) -> Round {
        match self {
            DropSpec::None => Round::ZERO,
            DropSpec::Random { until, .. } => *until,
            DropSpec::Partition { heal, .. } | DropSpec::Isolate { heal, .. } => *heal,
        }
    }
}

impl WireEncode for DropSpec {
    fn encode(&self, w: &mut Writer) {
        match self {
            DropSpec::None => w.put_u8(0),
            DropSpec::Random {
                p_permille,
                until,
                stream,
            } => {
                w.put_u8(1);
                p_permille.encode(w);
                until.encode(w);
                stream.encode(w);
            }
            DropSpec::Partition { sides, heal } => {
                w.put_u8(2);
                sides.encode(w);
                heal.encode(w);
            }
            DropSpec::Isolate { pids, heal } => {
                w.put_u8(3);
                pids.encode(w);
                heal.encode(w);
            }
        }
    }
}

impl WireDecode for DropSpec {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.take_u8()? {
            0 => DropSpec::None,
            1 => {
                let p_permille = u16::decode(r)?;
                if p_permille > 1000 {
                    return Err(DecodeError::BadValue("DropSpec permille"));
                }
                DropSpec::Random {
                    p_permille,
                    until: Round::decode(r)?,
                    stream: u64::decode(r)?,
                }
            }
            2 => DropSpec::Partition {
                sides: Vec::decode(r)?,
                heal: Round::decode(r)?,
            },
            3 => DropSpec::Isolate {
                pids: BTreeSet::decode(r)?,
                heal: Round::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "DropSpec",
                    tag,
                })
            }
        })
    }
}

/// One mid-run disruption.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleEvent {
    /// The given correct processes turn Byzantine.
    ///
    /// The engine validates the Byzantine budget: if the turn would push
    /// the ever-Byzantine count past `t`, the event is *rejected* and the
    /// run reports a detected model breach — schedules may carry such
    /// events deliberately, to assert detection.
    TurnByzantine {
        /// Processes turning.
        pids: BTreeSet<Pid>,
    },
    /// The Byzantine coalition switches strategy.
    SwitchStrategy {
        /// The new strategy.
        strategy: StrategyKind,
    },
    /// The drop policy is replaced (a partition forms, a ramp starts, or
    /// — with [`DropSpec::None`] — the network heals).
    SetDrops {
        /// The new policy.
        policy: DropSpec,
    },
    /// The topology becomes the complete graph minus `cut` (empty `cut`
    /// restores full connectivity).
    SetTopology {
        /// Undirected edges removed from the complete graph.
        cut: BTreeSet<(Pid, Pid)>,
    },
    /// The sharded engine aborts shard `shard`'s live shot.
    ShardAbort {
        /// Target shard index.
        shard: u32,
    },
    /// The sharded engine enqueues a fresh shot on shard `shard`.
    ShardEnqueue {
        /// Target shard index.
        shard: u32,
        /// Inputs for the new shot's processes.
        inputs: Vec<bool>,
    },
    /// The process crashes at this round boundary: it stops sending, and
    /// every message addressed to it drops until it recovers.
    Crash {
        /// The crashing process.
        pid: Pid,
    },
    /// A crashed process rejoins at this round boundary.
    ///
    /// [`RecoveryMode::Durable`] replays the journal (bit-exact state,
    /// still correct); [`RecoveryMode::Amnesiac`] respawns fresh and
    /// consumes the shared fault budget — the engine rejects the event
    /// (a reported breach) if that would exceed `t`.
    Recover {
        /// The recovering process.
        pid: Pid,
        /// How it rejoins.
        mode: RecoveryMode,
    },
}

impl ScheduleEvent {
    /// A short label for traces and DOT artifacts.
    pub fn label(&self) -> String {
        match self {
            ScheduleEvent::TurnByzantine { pids } => format!("turn_byz({} pids)", pids.len()),
            ScheduleEvent::SwitchStrategy { strategy } => format!("switch({})", strategy.label()),
            ScheduleEvent::SetDrops { policy } => match policy {
                DropSpec::None => "heal".into(),
                DropSpec::Random { p_permille, .. } => format!("drops(p={p_permille}‰)"),
                DropSpec::Partition { sides, .. } => format!("partition({} sides)", sides.len()),
                DropSpec::Isolate { pids, .. } => format!("isolate({} pids)", pids.len()),
            },
            ScheduleEvent::SetTopology { cut } if cut.is_empty() => "topology(complete)".into(),
            ScheduleEvent::SetTopology { cut } => format!("topology(-{} edges)", cut.len()),
            ScheduleEvent::ShardAbort { shard } => format!("abort(shard {shard})"),
            ScheduleEvent::ShardEnqueue { shard, .. } => format!("enqueue(shard {shard})"),
            ScheduleEvent::Crash { pid } => format!("crash({pid})"),
            ScheduleEvent::Recover { pid, mode } => format!("recover({pid}, {})", mode.label()),
        }
    }
}

impl WireEncode for ScheduleEvent {
    fn encode(&self, w: &mut Writer) {
        match self {
            ScheduleEvent::TurnByzantine { pids } => {
                w.put_u8(0);
                pids.encode(w);
            }
            ScheduleEvent::SwitchStrategy { strategy } => {
                w.put_u8(1);
                strategy.encode(w);
            }
            ScheduleEvent::SetDrops { policy } => {
                w.put_u8(2);
                policy.encode(w);
            }
            ScheduleEvent::SetTopology { cut } => {
                w.put_u8(3);
                cut.encode(w);
            }
            ScheduleEvent::ShardAbort { shard } => {
                w.put_u8(4);
                shard.encode(w);
            }
            ScheduleEvent::ShardEnqueue { shard, inputs } => {
                w.put_u8(5);
                shard.encode(w);
                inputs.encode(w);
            }
            ScheduleEvent::Crash { pid } => {
                w.put_u8(6);
                pid.encode(w);
            }
            ScheduleEvent::Recover { pid, mode } => {
                w.put_u8(7);
                pid.encode(w);
                mode.encode(w);
            }
        }
    }
}

impl WireDecode for ScheduleEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.take_u8()? {
            0 => ScheduleEvent::TurnByzantine {
                pids: BTreeSet::decode(r)?,
            },
            1 => ScheduleEvent::SwitchStrategy {
                strategy: StrategyKind::decode(r)?,
            },
            2 => ScheduleEvent::SetDrops {
                policy: DropSpec::decode(r)?,
            },
            3 => ScheduleEvent::SetTopology {
                cut: BTreeSet::decode(r)?,
            },
            4 => ScheduleEvent::ShardAbort {
                shard: u32::decode(r)?,
            },
            5 => ScheduleEvent::ShardEnqueue {
                shard: u32::decode(r)?,
                inputs: Vec::decode(r)?,
            },
            6 => ScheduleEvent::Crash {
                pid: Pid::decode(r)?,
            },
            7 => ScheduleEvent::Recover {
                pid: Pid::decode(r)?,
                mode: RecoveryMode::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    what: "ScheduleEvent",
                    tag,
                })
            }
        })
    }
}

/// An event with the round it fires at.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// The round at whose *start* the event applies.
    pub at: Round,
    /// The disruption.
    pub event: ScheduleEvent,
}

impl WireEncode for TimedEvent {
    fn encode(&self, w: &mut Writer) {
        self.at.encode(w);
        self.event.encode(w);
    }
}

impl WireDecode for TimedEvent {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(TimedEvent {
            at: Round::decode(r)?,
            event: ScheduleEvent::decode(r)?,
        })
    }
}

/// A reproducible scenario script: seed, horizon, and timed events.
///
/// The schedule *is* the replay artifact: [`Schedule::to_hex`] emits a
/// one-line string that [`Schedule::from_hex`] restores byte-for-byte,
/// and the seed inside it re-derives every sub-stream.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Schedule {
    /// The scenario seed every sub-stream is derived from.
    pub seed: u64,
    /// The global stabilization round the scenario promises: all
    /// disruptive drop phases end before it.
    pub gst: Round,
    /// The observation horizon (rounds the run executes).
    pub horizon: Round,
    /// The timed events, sorted by round (see [`Schedule::normalize`]).
    pub events: Vec<TimedEvent>,
}

impl Schedule {
    /// An empty schedule for `seed` with the given stabilization round
    /// and horizon.
    pub fn new(seed: u64, gst: Round, horizon: Round) -> Self {
        Schedule {
            seed,
            gst,
            horizon,
            events: Vec::new(),
        }
    }

    /// Appends an event firing at `at`.
    pub fn push(&mut self, at: Round, event: ScheduleEvent) {
        self.events.push(TimedEvent { at, event });
    }

    /// The events firing at the start of `round`, in push order.
    pub fn events_at(&self, round: Round) -> impl Iterator<Item = &ScheduleEvent> {
        self.events
            .iter()
            .filter(move |e| e.at == round)
            .map(|e| &e.event)
    }

    /// Sorts events by round, keeping push order within a round.
    pub fn normalize(&mut self) {
        self.events.sort_by_key(|e| e.at);
    }

    /// Encodes the schedule as a versioned frame in lowercase hex — the
    /// one-line replay artifact.
    pub fn to_hex(&self) -> String {
        let bytes = encode_frame(self);
        let mut out = String::with_capacity(bytes.len() * 2);
        for b in bytes {
            use fmt::Write;
            write!(out, "{b:02x}").expect("write to String");
        }
        out
    }

    /// Decodes a schedule from its [`to_hex`](Schedule::to_hex) line.
    pub fn from_hex(hex: &str) -> Result<Self, DecodeError> {
        let hex = hex.trim();
        if hex.len() % 2 != 0 {
            return Err(DecodeError::BadValue("Schedule hex length"));
        }
        let nibble = |c: u8| -> Result<u8, DecodeError> {
            match c {
                b'0'..=b'9' => Ok(c - b'0'),
                b'a'..=b'f' => Ok(c - b'a' + 10),
                b'A'..=b'F' => Ok(c - b'A' + 10),
                _ => Err(DecodeError::BadValue("Schedule hex digit")),
            }
        };
        let raw = hex.as_bytes();
        let mut bytes = Vec::with_capacity(raw.len() / 2);
        for pair in raw.chunks_exact(2) {
            bytes.push((nibble(pair[0])? << 4) | nibble(pair[1])?);
        }
        decode_frame(&bytes)
    }
}

impl WireEncode for Schedule {
    fn encode(&self, w: &mut Writer) {
        self.seed.encode(w);
        self.gst.encode(w);
        self.horizon.encode(w);
        self.events.encode(w);
    }
}

impl WireDecode for Schedule {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Schedule {
            seed: u64::decode(r)?,
            gst: Round::decode(r)?,
            horizon: Round::decode(r)?,
            events: Vec::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_schedule() -> Schedule {
        let mut s = Schedule::new(0xDEAD_BEEF, Round::new(9), Round::new(14));
        s.push(
            Round::new(3),
            ScheduleEvent::TurnByzantine {
                pids: [Pid::new(2)].into_iter().collect(),
            },
        );
        s.push(
            Round::new(4),
            ScheduleEvent::SwitchStrategy {
                strategy: StrategyKind::CrashAt {
                    at: Round::new(7),
                    inner: Box::new(StrategyKind::Mimic {
                        inputs: vec![(Pid::new(2), true)],
                    }),
                },
            },
        );
        s.push(
            Round::new(5),
            ScheduleEvent::SetDrops {
                policy: DropSpec::Partition {
                    sides: vec![
                        [Pid::new(0), Pid::new(1)].into_iter().collect(),
                        [Pid::new(3)].into_iter().collect(),
                    ],
                    heal: Round::new(8),
                },
            },
        );
        s.push(
            Round::new(6),
            ScheduleEvent::SetTopology {
                cut: [(Pid::new(0), Pid::new(3))].into_iter().collect(),
            },
        );
        s.push(Round::new(10), ScheduleEvent::ShardAbort { shard: 1 });
        s.push(
            Round::new(11),
            ScheduleEvent::ShardEnqueue {
                shard: 1,
                inputs: vec![true, false, true],
            },
        );
        s.push(Round::new(12), ScheduleEvent::Crash { pid: Pid::new(1) });
        s.push(
            Round::new(13),
            ScheduleEvent::Recover {
                pid: Pid::new(1),
                mode: RecoveryMode::Durable,
            },
        );
        s
    }

    #[test]
    fn sub_seed_streams_are_decorrelated() {
        let seed = 42;
        let all: BTreeSet<u64> = (0..64).map(|c| sub_seed(seed, c)).collect();
        assert_eq!(all.len(), 64, "component streams must not collide");
        // Adjacent seeds with the same component diverge too.
        assert_ne!(
            sub_seed(seed, stream::DROPS),
            sub_seed(seed + 1, stream::DROPS)
        );
        // And the raw seed is never reused verbatim.
        assert!((0..64).all(|c| sub_seed(seed, c) != seed));
    }

    #[test]
    fn schedule_roundtrips_through_hex() {
        let s = sample_schedule();
        let hex = s.to_hex();
        let back = Schedule::from_hex(&hex).expect("decode");
        assert_eq!(back, s);
        // Upper-case and padded variants decode identically.
        assert_eq!(Schedule::from_hex(&hex.to_uppercase()).unwrap(), s);
        assert_eq!(Schedule::from_hex(&format!("  {hex}\n")).unwrap(), s);
    }

    #[test]
    fn schedule_hex_rejects_garbage() {
        assert!(Schedule::from_hex("abc").is_err(), "odd length");
        assert!(Schedule::from_hex("zz").is_err(), "non-hex digit");
        // A valid-hex but truncated frame fails to decode.
        let hex = sample_schedule().to_hex();
        assert!(Schedule::from_hex(&hex[..hex.len() - 4]).is_err());
    }

    #[test]
    fn schedule_encoding_is_pinned() {
        // Golden byte pin: any codec change that silently invalidates
        // existing replay lines must show up here.
        let mut s = Schedule::new(7, Round::new(2), Round::new(5));
        s.push(
            Round::new(1),
            ScheduleEvent::TurnByzantine {
                pids: [Pid::new(0)].into_iter().collect(),
            },
        );
        assert_eq!(s.to_hex(), "010702050101000100");
    }

    #[test]
    fn normalize_sorts_stably() {
        let mut s = Schedule::new(1, Round::new(5), Round::new(9));
        s.push(Round::new(4), ScheduleEvent::ShardAbort { shard: 2 });
        s.push(Round::new(2), ScheduleEvent::ShardAbort { shard: 0 });
        s.push(Round::new(4), ScheduleEvent::ShardAbort { shard: 1 });
        s.normalize();
        let order: Vec<(u64, u32)> = s
            .events
            .iter()
            .map(|e| match e.event {
                ScheduleEvent::ShardAbort { shard } => (e.at.index(), shard),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![(2, 0), (4, 2), (4, 1)]);
    }

    #[test]
    fn events_at_filters_by_round() {
        let s = sample_schedule();
        assert_eq!(s.events_at(Round::new(3)).count(), 1);
        assert_eq!(s.events_at(Round::new(7)).count(), 0);
    }

    #[test]
    fn drop_spec_gst_matches_variants() {
        assert_eq!(DropSpec::None.gst(), Round::ZERO);
        let r = DropSpec::Random {
            p_permille: 250,
            until: Round::new(6),
            stream: stream::DROPS,
        };
        assert_eq!(r.gst(), Round::new(6));
    }

    #[test]
    fn permille_over_1000_is_rejected() {
        let bad = DropSpec::Random {
            p_permille: 1001,
            until: Round::new(1),
            stream: 0,
        };
        let mut w = Writer::new();
        bad.encode(&mut w);
        let mut r = Reader::new(w.as_slice());
        assert!(DropSpec::decode(&mut r).is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(StrategyKind::Silent.label(), "silent");
        assert_eq!(
            StrategyKind::CrashAt {
                at: Round::new(3),
                inner: Box::new(StrategyKind::Silent)
            }
            .label(),
            "crash(silent)"
        );
        assert_eq!(
            ScheduleEvent::SetTopology {
                cut: BTreeSet::new()
            }
            .label(),
            "topology(complete)"
        );
        assert_eq!(
            ScheduleEvent::Crash { pid: Pid::new(3) }.label(),
            "crash(p3)"
        );
        assert_eq!(
            ScheduleEvent::Recover {
                pid: Pid::new(3),
                mode: RecoveryMode::Amnesiac
            }
            .label(),
            "recover(p3, amnesiac)"
        );
    }

    #[test]
    fn recovery_mode_round_trips() {
        for mode in [RecoveryMode::Durable, RecoveryMode::Amnesiac] {
            let mut w = Writer::new();
            mode.encode(&mut w);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(RecoveryMode::decode(&mut r).unwrap(), mode);
        }
        let mut r = Reader::new(&[9]);
        assert!(RecoveryMode::decode(&mut r).is_err());
    }
}
