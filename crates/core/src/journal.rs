//! Durable journals and crash-recovery replay.
//!
//! The engines in this workspace are deterministic round automata, which
//! makes crash recovery a *replay* problem: persist what each process
//! **received** per round (plus optional state snapshots), and a crashed
//! process can be rebuilt bit-for-bit by respawning a fresh automaton and
//! re-feeding it the journaled rounds. This module provides the pieces:
//!
//! * [`Journal`] — an append/sync/recover log of opaque byte records.
//!   Two backends ship: [`MemJournal`] (the engines' default, modelling
//!   the write-vs-fsync boundary in memory, and holding a record appended
//!   to several journals with [`Journal::append_shared`] once) and
//!   [`FileWal`] (a file-backed write-ahead log with checksummed records,
//!   the durable-state substrate the `homonymd` service tier will sit
//!   on).
//! * [`JournalEntry`] — the typed record layer: per-round delivered
//!   envelopes and versioned state snapshots, encoded with the exact wire
//!   codec ([`crate::codec`]).
//! * [`DeliveryRecords`] — the engines' write side: one round's records,
//!   one per recipient or per delivery class, assembled from frames
//!   encoded once each.
//! * [`replay`] — rebuilds a process from its entries: restore the last
//!   snapshot (if any), then re-run `send`/`receive` for every journaled
//!   round after it.
//! * [`Fault`] — seeded, reproducible WAL corruption (torn tail writes,
//!   truncation, bit flips) for the recovery-hardening tests: every
//!   injected fault must surface as a typed [`JournalError`], never as
//!   silently decoded garbage.
//!
//! # On-disk format
//!
//! ```text
//! magic "HJWL" | version u8 | record*      record := len u32le | crc32 u32le | payload
//! ```
//!
//! `crc32` is the IEEE CRC-32 of the payload. Recovery scans records in
//! order and stops at the first damage, returning the intact prefix plus
//! a typed description of the damage — the *clean rollback* contract.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write as _};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec::{
    decode_frame, DecodeError, Reader, WireDecode, WireEncode, Writer, FORMAT_VERSION,
};
use crate::config::Counting;
use crate::id::Id;
use crate::intern::Tok;
use crate::message::{Envelope, Inbox};
use crate::process::{Protocol, Round};

/// The WAL header: 4 magic bytes plus the codec format version.
const MAGIC: [u8; 4] = *b"HJWL";
/// Full header length in bytes (magic + version).
const HEADER_LEN: u64 = 5;
/// Per-record framing overhead in bytes (length + checksum).
const RECORD_HEADER_LEN: usize = 8;
/// Upper bound on a single record's payload — a length field larger than
/// this is treated as corruption rather than attempted as an allocation.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// What kind of damage a recovery scan found.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CorruptKind {
    /// The file does not start with the WAL magic/version header.
    BadMagic,
    /// The log ends inside a record header or payload — a torn or
    /// truncated tail write.
    TornRecord,
    /// A record's payload does not match its stored CRC-32 — a bit flip
    /// or overwrite.
    BadChecksum,
    /// A record header declares an implausibly large payload.
    OversizeRecord,
}

impl fmt::Display for CorruptKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorruptKind::BadMagic => write!(f, "bad magic"),
            CorruptKind::TornRecord => write!(f, "torn record"),
            CorruptKind::BadChecksum => write!(f, "bad checksum"),
            CorruptKind::OversizeRecord => write!(f, "oversize record"),
        }
    }
}

/// Why a journal operation failed. Every corruption mode injected by
/// [`Fault`] must map onto one of these — recovery never hands back
/// garbage bytes as if they were records.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalError {
    /// An underlying I/O operation failed (message stringified so the
    /// error stays comparable in tests).
    Io(String),
    /// The log is damaged at the given byte offset.
    Corrupt {
        /// Byte offset of the damaged record's header.
        offset: u64,
        /// The damage category.
        kind: CorruptKind,
    },
    /// A checksummed record decoded to no valid [`JournalEntry`].
    Decode(DecodeError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal i/o error: {e}"),
            JournalError::Corrupt { offset, kind } => {
                write!(f, "journal corrupt at byte {offset}: {kind}")
            }
            JournalError::Decode(e) => write!(f, "journal record undecodable: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> Self {
        JournalError::Io(e.to_string())
    }
}

impl From<DecodeError> for JournalError {
    fn from(e: DecodeError) -> Self {
        JournalError::Decode(e)
    }
}

/// The result of a recovery scan: every record before the first damage,
/// plus the damage itself (if any).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recovered {
    /// The intact record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// The first damage the scan hit, or `None` for a clean log.
    pub damage: Option<JournalError>,
}

/// An append-only, crash-consistent record log.
///
/// `append` stages a record; `sync` makes everything staged durable. A
/// crash (real or injected) may lose any suffix of the un-synced bytes —
/// [`recover`](Journal::recover) returns whatever survived, intact
/// records only.
pub trait Journal {
    /// Stages one record payload.
    fn append(&mut self, payload: &[u8]) -> Result<(), JournalError>;
    /// Stages one record that other journals may hold too — what the
    /// lock-step engines append to every member of a delivery class.
    /// Stages exactly what [`append`](Journal::append) would; a backend
    /// that keeps records in memory may keep the shared handle instead of
    /// a copy.
    fn append_shared(&mut self, record: &Arc<[u8]>) -> Result<(), JournalError> {
        self.append(record)
    }
    /// Makes every staged record durable.
    fn sync(&mut self) -> Result<(), JournalError>;
    /// Scans the durable log, returning the intact prefix and the first
    /// damage found (typed — corrupt bytes are never returned as records).
    fn recover(&self) -> Recovered;
    /// Discards the whole log, durably (a recovery baseline reset: after
    /// an amnesiac rejoin the pre-crash history must not replay).
    fn reset(&mut self) -> Result<(), JournalError>;
}

/// IEEE CRC-32, table-driven (the workspace vendors no checksum crate).
fn crc32(bytes: &[u8]) -> u32 {
    fn table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xedb8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    }
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(table);
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = table[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Frames one record (length + checksum + payload) onto a byte sink.
fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Scans a framed byte log (without the file header; `base` is the byte
/// offset the slice starts at, for damage reporting).
fn scan_records(bytes: &[u8], base: u64) -> Recovered {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let offset = base + pos as u64;
        if bytes.len() - pos < RECORD_HEADER_LEN {
            return Recovered {
                records,
                damage: Some(JournalError::Corrupt {
                    offset,
                    kind: CorruptKind::TornRecord,
                }),
            };
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len > MAX_RECORD_LEN {
            return Recovered {
                records,
                damage: Some(JournalError::Corrupt {
                    offset,
                    kind: CorruptKind::OversizeRecord,
                }),
            };
        }
        let start = pos + RECORD_HEADER_LEN;
        let end = start + len as usize;
        if end > bytes.len() {
            return Recovered {
                records,
                damage: Some(JournalError::Corrupt {
                    offset,
                    kind: CorruptKind::TornRecord,
                }),
            };
        }
        let payload = &bytes[start..end];
        if crc32(payload) != crc {
            return Recovered {
                records,
                damage: Some(JournalError::Corrupt {
                    offset,
                    kind: CorruptKind::BadChecksum,
                }),
            };
        }
        records.push(payload.to_vec());
        pos = end;
    }
    Recovered {
        records,
        damage: None,
    }
}

/// The in-memory journal backend: the engines' default.
///
/// Staged records become durable on [`sync`](Journal::sync);
/// [`crash`](MemJournal::crash) models power loss by dropping everything
/// staged since the last sync.
///
/// Records are held as shared `Arc<[u8]>` handles. A record staged with
/// [`append_shared`](Journal::append_shared) is kept by handle, so the
/// members of a delivery class — whose records are byte-identical — hold
/// one allocation between them instead of a copy each; a crash or a
/// [`reset`](Journal::reset) just drops this journal's handles.
/// [`recover`](Journal::recover) still returns owned copies.
#[derive(Clone, Debug, Default)]
pub struct MemJournal {
    synced: Vec<Arc<[u8]>>,
    staged: VecDeque<Arc<[u8]>>,
}

impl MemJournal {
    /// An empty journal.
    pub fn new() -> Self {
        MemJournal::default()
    }

    /// Simulates a crash: every record staged since the last
    /// [`sync`](Journal::sync) is lost.
    pub fn crash(&mut self) {
        self.staged.clear();
    }

    /// Total durable payload bytes.
    pub fn synced_bytes(&self) -> u64 {
        self.synced.iter().map(|r| r.len() as u64).sum()
    }
}

impl Journal for MemJournal {
    fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        self.staged.push_back(Arc::from(payload));
        Ok(())
    }

    fn append_shared(&mut self, record: &Arc<[u8]>) -> Result<(), JournalError> {
        self.staged.push_back(Arc::clone(record));
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.synced.extend(self.staged.drain(..));
        Ok(())
    }

    fn recover(&self) -> Recovered {
        Recovered {
            records: self.synced.iter().map(|r| r.to_vec()).collect(),
            damage: None,
        }
    }

    fn reset(&mut self) -> Result<(), JournalError> {
        self.synced.clear();
        self.staged.clear();
        Ok(())
    }
}

/// A file-backed write-ahead log with checksummed records.
///
/// `append` writes through to the file immediately; `sync` calls
/// `fsync`. [`crash`](FileWal::crash) models power loss between write
/// and fsync: a *seeded* amount of the un-synced tail survives (possibly
/// tearing the last record mid-write), the rest is lost. The seeded
/// [`Fault`] injectors corrupt the file in place for the hardening tests.
#[derive(Debug)]
pub struct FileWal {
    path: PathBuf,
    file: File,
    /// Bytes guaranteed on disk (header included).
    synced_len: u64,
    /// Bytes written (header included); the suffix past `synced_len` is
    /// at the mercy of a crash.
    len: u64,
}

impl FileWal {
    /// Creates (or truncates) the WAL at `path` and writes the header.
    pub fn create(path: impl AsRef<Path>) -> Result<Self, JournalError> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        file.write_all(&MAGIC)?;
        file.write_all(&[FORMAT_VERSION])?;
        file.sync_data()?;
        Ok(FileWal {
            path,
            file,
            synced_len: HEADER_LEN,
            len: HEADER_LEN,
        })
    }

    /// The WAL's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes durable on disk (header included).
    pub fn synced_len(&self) -> u64 {
        self.synced_len
    }

    /// Simulates power loss between write and fsync: of the un-synced
    /// tail, a seeded prefix survives — everything from a clean cut at
    /// the sync watermark to a torn half-record.
    pub fn crash(&mut self, seed: u64) -> Result<(), JournalError> {
        let tail = self.len - self.synced_len;
        let survives = if tail == 0 {
            0
        } else {
            splitmix(seed) % (tail + 1)
        };
        let new_len = self.synced_len + survives;
        self.file.set_len(new_len)?;
        self.file.seek(SeekFrom::End(0))?;
        self.len = new_len;
        Ok(())
    }

    /// Injects one corruption fault into the on-disk bytes.
    pub fn inject(&mut self, fault: &Fault) -> Result<(), JournalError> {
        let mut bytes = std::fs::read(&self.path)?;
        match *fault {
            Fault::TornTail { drop } => {
                let keep = bytes.len().saturating_sub(drop as usize);
                bytes.truncate(keep);
            }
            Fault::Truncate { len } => {
                bytes.truncate(len as usize);
            }
            Fault::BitFlip { offset, bit } => {
                if let Some(b) = bytes.get_mut(offset as usize) {
                    *b ^= 1 << (bit % 8);
                }
            }
        }
        std::fs::write(&self.path, &bytes)?;
        self.len = bytes.len() as u64;
        self.synced_len = self.synced_len.min(self.len);
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.file.seek(SeekFrom::End(0))?;
        Ok(())
    }
}

impl Journal for FileWal {
    fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let mut framed = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        frame_record(&mut framed, payload);
        self.file.write_all(&framed)?;
        self.len += framed.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), JournalError> {
        self.file.sync_data()?;
        self.synced_len = self.len;
        Ok(())
    }

    fn recover(&self) -> Recovered {
        let bytes = match std::fs::read(&self.path) {
            Ok(b) => b,
            Err(e) => {
                return Recovered {
                    records: Vec::new(),
                    damage: Some(e.into()),
                }
            }
        };
        if bytes.len() < HEADER_LEN as usize || bytes[..4] != MAGIC || bytes[4] != FORMAT_VERSION {
            return Recovered {
                records: Vec::new(),
                damage: Some(JournalError::Corrupt {
                    offset: 0,
                    kind: CorruptKind::BadMagic,
                }),
            };
        }
        scan_records(&bytes[HEADER_LEN as usize..], HEADER_LEN)
    }

    fn reset(&mut self) -> Result<(), JournalError> {
        self.file.set_len(HEADER_LEN)?;
        self.file.seek(SeekFrom::End(0))?;
        self.file.sync_data()?;
        self.len = HEADER_LEN;
        self.synced_len = HEADER_LEN;
        Ok(())
    }
}

/// One seeded WAL corruption, for the recovery-hardening tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Drop the last `drop` bytes (a torn tail write).
    TornTail {
        /// Bytes torn off the end.
        drop: u64,
    },
    /// Truncate the file to `len` bytes.
    Truncate {
        /// Surviving file length.
        len: u64,
    },
    /// Flip one bit in place.
    BitFlip {
        /// Byte offset of the flip.
        offset: u64,
        /// Bit index within the byte (taken mod 8).
        bit: u8,
    },
}

impl Fault {
    /// Draws one fault for a log of `file_len` bytes from a splitmix64
    /// stream over `seed` — same seed, same fault, every platform.
    pub fn draw(seed: u64, file_len: u64) -> Fault {
        let kind = splitmix(seed) % 3;
        let a = splitmix(seed.wrapping_add(1));
        let b = splitmix(seed.wrapping_add(2));
        match kind {
            0 => Fault::TornTail {
                drop: 1 + a % file_len.max(1),
            },
            1 => Fault::Truncate {
                len: a % file_len.max(1),
            },
            _ => Fault::BitFlip {
                offset: a % file_len.max(1),
                bit: (b % 8) as u8,
            },
        }
    }
}

/// One splitmix64 step (the same generator the scenario sub-streams use).
fn splitmix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A typed journal record: what one process experienced, round by round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalEntry<M> {
    /// The envelopes delivered to this process in `round` (possibly
    /// none — an entry is journaled for every executed round, because
    /// `send` mutates state and replay must re-run it).
    Deliveries {
        /// The round these envelopes arrived in.
        round: Round,
        /// `(sender identifier, message)` pairs in delivery order.
        envelopes: Vec<(Id, M)>,
    },
    /// A versioned state snapshot, valid at the *start* of `round`:
    /// replay restores the latest snapshot and re-runs only the rounds
    /// after it.
    Snapshot {
        /// The first round NOT covered by this snapshot.
        round: Round,
        /// The [`Protocol::snapshot`] bytes.
        bytes: Vec<u8>,
    },
}

const TAG_DELIVERIES: u8 = 0;
const TAG_SNAPSHOT: u8 = 1;

impl<M: WireEncode> WireEncode for JournalEntry<M> {
    fn encode(&self, w: &mut Writer) {
        match self {
            JournalEntry::Deliveries { round, envelopes } => {
                w.put_u8(TAG_DELIVERIES);
                round.encode(w);
                envelopes.encode(w);
            }
            JournalEntry::Snapshot { round, bytes } => {
                w.put_u8(TAG_SNAPSHOT);
                round.encode(w);
                bytes.encode(w);
            }
        }
    }
}

impl<M: WireDecode> WireDecode for JournalEntry<M> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.take_u8()? {
            TAG_DELIVERIES => Ok(JournalEntry::Deliveries {
                round: Round::decode(r)?,
                envelopes: Vec::decode(r)?,
            }),
            TAG_SNAPSHOT => Ok(JournalEntry::Snapshot {
                round: Round::decode(r)?,
                bytes: Vec::decode(r)?,
            }),
            tag => Err(DecodeError::BadTag {
                what: "JournalEntry",
                tag,
            }),
        }
    }
}

/// Opens a framed deliveries record: everything before the envelopes.
fn put_deliveries_header(w: &mut Writer, round: Round, envelopes: usize) {
    w.put_u8(FORMAT_VERSION);
    w.put_u8(TAG_DELIVERIES);
    round.encode(w);
    w.put_varint(envelopes as u64);
}

/// Encodes a deliveries entry straight from `Arc`-shared wires —
/// byte-identical to encoding an owned [`JournalEntry::Deliveries`],
/// without cloning any payload. This is the reference encoder: the
/// engines write through [`DeliveryRecords`], which must produce these
/// exact bytes.
pub fn encode_deliveries_entry<M: WireEncode>(
    round: Round,
    envelopes: &[(Id, std::sync::Arc<M>)],
) -> Vec<u8> {
    let mut w = Writer::new();
    put_deliveries_header(&mut w, round, envelopes.len());
    for (src, msg) in envelopes {
        src.encode(&mut w);
        msg.encode(&mut w);
    }
    w.into_vec()
}

/// One round's [`Deliveries`](JournalEntry::Deliveries) records, assembled
/// from frames that are encoded once.
///
/// A broadcast round hands almost every recipient the same frames, so
/// encoding record by record repeats the codec's work once per recipient.
/// The builder encodes a frame into a shared arena the first time its
/// frame token is staged in a round (the engines stamp one token per
/// distinct payload through their
/// [`FrameInterner`](crate::fabric::FrameInterner), so equal tokens mean
/// equal bytes) and splices those bytes into each record — byte for byte
/// what [`encode_deliveries_entry`] writes, so the record format and every
/// reader of it are unaffected.
///
/// Records are built in numbered *slots*. A record does not name its
/// recipient, so what a slot stands for is the caller's choice: the
/// delay engine (`DelayCluster`) uses one slot per recipient, the
/// lock-step engines one per delivery class (recipients that received the
/// same frames), whose record they append to every member's journal.
///
/// Per round: [`begin`](DeliveryRecords::begin), one
/// [`stage`](DeliveryRecords::stage) per delivered envelope in delivery
/// order, then [`record`](DeliveryRecords::record) for each slot that is
/// journalled. Every buffer is reused across rounds, and a new builder
/// allocates nothing until its first round.
#[derive(Debug, Default)]
pub struct DeliveryRecords {
    /// The round's distinct frames, each encoded once.
    arena: Writer,
    /// Frame token → where its bytes sit in `arena`, this round.
    frames: BTreeMap<Tok, Range<usize>>,
    /// Per slot: `(sender identifier, arena range)` in delivery order.
    staged: Vec<Vec<(Id, Range<usize>)>>,
    /// The record last assembled.
    record: Writer,
}

impl DeliveryRecords {
    /// An empty builder.
    pub fn new() -> Self {
        DeliveryRecords::default()
    }

    /// Opens a round over slots `0..slots`, forgetting the previous
    /// round's frames and staged envelopes.
    pub fn begin(&mut self, slots: usize) {
        self.arena.clear();
        self.frames.clear();
        if self.staged.len() < slots {
            self.staged.resize_with(slots, Vec::new);
        }
        for envelopes in &mut self.staged {
            envelopes.clear();
        }
    }

    /// Stages one envelope of `slot`'s record. `msg` is encoded only if
    /// no frame with token `tok` has been staged since
    /// [`begin`](DeliveryRecords::begin).
    ///
    /// # Panics
    ///
    /// Panics if `slot` lies outside the range the round was opened over.
    pub fn stage<M: WireEncode>(&mut self, slot: usize, src: Id, tok: Tok, msg: &M) {
        let arena = &mut self.arena;
        let span = self.frames.entry(tok).or_insert_with(|| {
            let start = arena.len();
            msg.encode(arena);
            start..arena.len()
        });
        self.staged[slot].push((src, span.clone()));
    }

    /// Assembles `slot`'s record for `round` from the envelopes staged
    /// for it (possibly none: every executed round is journalled). The
    /// bytes stay valid until the next call on the builder.
    ///
    /// # Panics
    ///
    /// Panics if `slot` lies outside the range the round was opened over.
    pub fn record(&mut self, round: Round, slot: usize) -> &[u8] {
        let envelopes = &self.staged[slot];
        self.record.clear();
        put_deliveries_header(&mut self.record, round, envelopes.len());
        for (src, span) in envelopes {
            src.encode(&mut self.record);
            self.record.put_bytes(&self.arena.as_slice()[span.clone()]);
        }
        self.record.as_slice()
    }
}

/// Encodes a snapshot entry (no message bound — snapshot bytes are
/// already codec-framed by the protocol).
pub fn encode_snapshot_entry(round: Round, bytes: &[u8]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u8(FORMAT_VERSION);
    w.put_u8(TAG_SNAPSHOT);
    round.encode(&mut w);
    w.put_varint(bytes.len() as u64);
    for &b in bytes {
        w.put_varint(u64::from(b));
    }
    w.into_vec()
}

/// Decodes every recovered record into typed entries. Fails on the first
/// undecodable record — checksummed-but-meaningless bytes are an error,
/// never a silently empty entry.
pub fn decode_entries<M: WireDecode>(
    records: &[Vec<u8>],
) -> Result<Vec<JournalEntry<M>>, JournalError> {
    records
        .iter()
        .map(|r| decode_frame::<JournalEntry<M>>(r).map_err(JournalError::Decode))
        .collect()
}

/// Replays journal entries into a freshly spawned automaton: restores
/// the latest snapshot (if the entries carry one), then re-runs
/// `send`/`receive` for every journaled round after it — determinism
/// makes the result byte-identical to the pre-crash state. Returns the
/// first round *not* replayed (what the process should execute next).
pub fn replay<P: Protocol>(
    proc_: &mut P,
    entries: Vec<JournalEntry<P::Msg>>,
    counting: Counting,
) -> Result<Round, DecodeError> {
    let mut from = Round::ZERO;
    for entry in &entries {
        if let JournalEntry::Snapshot { round, .. } = entry {
            from = (*round).max(from);
        }
    }
    if from > Round::ZERO {
        let bytes = entries
            .iter()
            .rev()
            .find_map(|e| match e {
                JournalEntry::Snapshot { round, bytes } if *round == from => Some(bytes),
                _ => None,
            })
            .expect("snapshot round came from an entry");
        proc_.restore(bytes)?;
    }
    let mut next = from;
    for entry in entries {
        if let JournalEntry::Deliveries { round, envelopes } = entry {
            if round < from {
                continue;
            }
            let _ = proc_.send_shared(round);
            let inbox = Inbox::collect(
                envelopes
                    .into_iter()
                    .map(|(src, msg)| Envelope { src, msg }),
                counting,
            );
            proc_.receive(round, &inbox);
            next = round.next();
        }
    }
    Ok(next)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use proptest::collection;
    use proptest::prelude::*;

    use super::*;
    use crate::fabric::FrameInterner;

    fn entry(round: u64, msgs: &[(u16, u64)]) -> Vec<u8> {
        let e = JournalEntry::Deliveries {
            round: Round::new(round),
            envelopes: msgs
                .iter()
                .map(|&(id, m)| (Id::new(id), m))
                .collect::<Vec<(Id, u64)>>(),
        };
        crate::codec::encode_frame(&e)
    }

    #[test]
    fn crc32_known_vectors() {
        // IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn mem_journal_sync_boundary() {
        let mut j = MemJournal::new();
        j.append(b"a").unwrap();
        j.sync().unwrap();
        j.append(b"b").unwrap();
        j.crash();
        j.append(b"c").unwrap();
        j.sync().unwrap();
        let rec = j.recover();
        assert_eq!(rec.records, vec![b"a".to_vec(), b"c".to_vec()]);
        assert_eq!(rec.damage, None);
    }

    #[test]
    fn a_shared_record_is_one_allocation_across_journals() {
        let record: Arc<[u8]> = Arc::from(&entry(3, &[(1, 10), (2, 20)])[..]);
        let mut journals: Vec<MemJournal> = (0..4).map(|_| MemJournal::new()).collect();
        for j in &mut journals {
            j.append_shared(&record).unwrap();
            j.sync().unwrap();
        }
        assert_eq!(Arc::strong_count(&record), journals.len() + 1);
        for j in &journals {
            assert_eq!(j.recover().records, vec![record.to_vec()]);
            assert_eq!(j.synced_bytes(), record.len() as u64);
        }
        // A crash drops only the staged handle; the synced one survives.
        journals[0].append_shared(&record).unwrap();
        assert_eq!(Arc::strong_count(&record), journals.len() + 2);
        journals[0].crash();
        assert_eq!(Arc::strong_count(&record), journals.len() + 1);
        assert_eq!(journals[0].recover().records, vec![record.to_vec()]);
        // A reset releases every handle, staged and synced.
        for j in &mut journals {
            j.append_shared(&record).unwrap();
            j.reset().unwrap();
            assert!(j.recover().records.is_empty());
        }
        assert_eq!(Arc::strong_count(&record), 1);
    }

    #[test]
    fn file_wal_append_shared_writes_what_append_writes() {
        let (plain, shared) = (tmp("plain"), tmp("shared"));
        let record: Arc<[u8]> = Arc::from(&entry(1, &[(2, 70_000)])[..]);
        let mut a = FileWal::create(&plain).unwrap();
        a.append(&record).unwrap();
        a.sync().unwrap();
        let mut b = FileWal::create(&shared).unwrap();
        b.append_shared(&record).unwrap();
        b.sync().unwrap();
        assert_eq!(
            std::fs::read(&plain).unwrap(),
            std::fs::read(&shared).unwrap()
        );
        assert_eq!(b.recover().records, vec![record.to_vec()]);
        std::fs::remove_file(&plain).ok();
        std::fs::remove_file(&shared).ok();
    }

    #[test]
    fn entry_round_trips_through_frames() {
        let bytes = entry(3, &[(1, 10), (2, 20)]);
        let decoded: JournalEntry<u64> = decode_frame(&bytes).unwrap();
        assert_eq!(
            decoded,
            JournalEntry::Deliveries {
                round: Round::new(3),
                envelopes: vec![(Id::new(1), 10), (Id::new(2), 20)],
            }
        );
    }

    #[test]
    fn arc_encoder_matches_owned_encoding() {
        let owned = entry(5, &[(1, 42), (3, 7)]);
        let shared = encode_deliveries_entry(
            Round::new(5),
            &[(Id::new(1), Arc::new(42u64)), (Id::new(3), Arc::new(7u64))],
        );
        assert_eq!(owned, shared);
    }

    /// One emission of a generated round: the sender's identifier, its
    /// payload, and which recipients it reaches.
    type Emission = (u16, u64, Vec<bool>);

    /// Rounds over `n ≤ 5` recipients. Payloads come from a four-value
    /// alphabet of different encoded lengths, so homonym senders emit
    /// equal content (each under its own `Arc`); a reach mask is anything
    /// from a broadcast to a Byzantine unicast to nobody, which also
    /// leaves inboxes empty; `skipped` marks the recipients down for the
    /// whole run.
    fn rounds_strategy() -> impl Strategy<Value = (usize, Vec<bool>, Vec<Vec<Emission>>)> {
        (1usize..=5).prop_flat_map(|n| {
            let payload = (0usize..4).prop_map(|i| [0u64, 200, 70_000, u64::MAX][i]);
            let emission = (1u16..=3, payload, collection::vec(any::<bool>(), n));
            (
                Just(n),
                collection::vec(any::<bool>(), n),
                collection::vec(collection::vec(emission, 0..8), 1..4),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Every record the builder assembles is the reference encoder's,
        /// byte for byte, and decodes back to the staged envelopes — over
        /// several rounds on one builder, with tokens from one interner
        /// as in the engines.
        #[test]
        fn builder_records_match_the_reference_encoder(
            (n, skipped, rounds) in rounds_strategy(),
        ) {
            let mut frames: FrameInterner<u64> = FrameInterner::new();
            let mut records = DeliveryRecords::new();
            for (r, emissions) in rounds.iter().enumerate() {
                let round = Round::new(r as u64);
                let mut staged: Vec<Vec<(Id, Arc<u64>)>> = vec![Vec::new(); n];
                records.begin(n);
                for (src, payload, reach) in emissions {
                    let msg = Arc::new(*payload);
                    let tok = frames.tok_for(&msg);
                    for to in (0..n).filter(|&to| reach[to]) {
                        records.stage(to, Id::new(*src), tok, &*msg);
                        staged[to].push((Id::new(*src), Arc::clone(&msg)));
                    }
                }
                for to in (0..n).filter(|&to| !skipped[to]) {
                    let record = records.record(round, to).to_vec();
                    prop_assert_eq!(&record, &encode_deliveries_entry(round, &staged[to]));
                    let envelopes = staged[to].iter().map(|(src, msg)| (*src, **msg)).collect();
                    prop_assert_eq!(
                        decode_entries::<u64>(&[record]).unwrap(),
                        vec![JournalEntry::Deliveries { round, envelopes }]
                    );
                }
            }
        }
    }

    #[test]
    fn a_frame_delivered_to_k_recipients_is_encoded_once() {
        let mut frames: FrameInterner<u64> = FrameInterner::new();
        let mut records = DeliveryRecords::new();
        // Two homonyms broadcast equal content under their own `Arc`s; a
        // third sender unicasts something else.
        let (k, msg, homonym, other) = (4, Arc::new(70_000u64), Arc::new(70_000u64), Arc::new(9));
        records.begin(k);
        for to in 0..k {
            records.stage(to, Id::new(1), frames.tok_for(&msg), &*msg);
            records.stage(to, Id::new(1), frames.tok_for(&homonym), &*homonym);
        }
        records.stage(0, Id::new(2), frames.tok_for(&other), &*other);
        let frame_len = |m: &u64| crate::codec::encode_frame(m).len() - 1;
        assert_eq!(records.arena.len(), frame_len(&msg) + frame_len(&other));
        let record = records.record(Round::new(2), k - 1).to_vec();
        assert_eq!(record, entry(2, &[(1, 70_000), (1, 70_000)]));
    }

    #[test]
    fn snapshot_encoder_matches_owned_encoding() {
        let e: JournalEntry<u64> = JournalEntry::Snapshot {
            round: Round::new(4),
            bytes: vec![1, 2, 200],
        };
        let owned = crate::codec::encode_frame(&e);
        assert_eq!(owned, encode_snapshot_entry(Round::new(4), &[1, 2, 200]));
    }

    #[test]
    fn undecodable_record_is_a_typed_error() {
        let garbage = vec![vec![0xff, 0xff, 0xff]];
        let err = decode_entries::<u64>(&garbage).unwrap_err();
        assert!(matches!(err, JournalError::Decode(_)));
    }

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("homonym-journal-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn file_wal_round_trips() {
        let path = tmp("roundtrip");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append(b"one").unwrap();
        wal.append(b"two").unwrap();
        wal.sync().unwrap();
        let rec = wal.recover();
        assert_eq!(rec.records, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(rec.damage, None);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_wal_crash_loses_only_unsynced_tail() {
        let path = tmp("crash");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append(b"durable").unwrap();
        wal.sync().unwrap();
        wal.append(b"staged-but-lost").unwrap();
        wal.crash(7).unwrap();
        let rec = wal.recover();
        // The synced prefix always survives; the tail either vanished
        // cleanly or tore mid-record — never decoded as garbage.
        assert_eq!(rec.records[0], b"durable".to_vec());
        assert!(rec.records.len() <= 2);
        if rec.records.len() == 1 && rec.damage.is_some() {
            assert!(matches!(
                rec.damage,
                Some(JournalError::Corrupt {
                    kind: CorruptKind::TornRecord,
                    ..
                })
            ));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_detected() {
        let path = tmp("flip");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append(b"payload-under-test").unwrap();
        wal.sync().unwrap();
        // Flip a payload bit (past the record header).
        wal.inject(&Fault::BitFlip {
            offset: HEADER_LEN + RECORD_HEADER_LEN as u64 + 2,
            bit: 3,
        })
        .unwrap();
        let rec = wal.recover();
        assert!(rec.records.is_empty());
        assert!(matches!(
            rec.damage,
            Some(JournalError::Corrupt {
                kind: CorruptKind::BadChecksum,
                ..
            })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_damage_is_bad_magic() {
        let path = tmp("magic");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        wal.inject(&Fault::BitFlip { offset: 1, bit: 0 }).unwrap();
        let rec = wal.recover();
        assert_eq!(
            rec.damage,
            Some(JournalError::Corrupt {
                offset: 0,
                kind: CorruptKind::BadMagic,
            })
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_empties_durably() {
        let path = tmp("reset");
        let mut wal = FileWal::create(&path).unwrap();
        wal.append(b"gone").unwrap();
        wal.sync().unwrap();
        wal.reset().unwrap();
        let rec = wal.recover();
        assert!(rec.records.is_empty());
        assert_eq!(rec.damage, None);
        wal.append(b"fresh").unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.recover().records, vec![b"fresh".to_vec()]);
        std::fs::remove_file(&path).ok();
    }
}
