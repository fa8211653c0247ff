//! The on-disk epoch-boundary journal.
//!
//! # Format (schema version 3)
//!
//! ```text
//! header  (32 bytes):
//!   magic              4 bytes   b"SSJ1"
//!   schema_version     u32 LE
//!   seed               u64 LE    scenario RNG seed
//!   config_fingerprint u64 LE    hash of the result-shaping scenario config
//!   header_checksum    u64 LE    fnv1a64 of the 24 bytes above
//! records (repeated):
//!   len                u32 LE    payload length in bytes
//!   payload_checksum   u64 LE    record_checksum of the payload
//!   payload            len bytes
//! ```
//!
//! The length + checksum frame *is* the seal: a record is committed
//! once its frame is fully on disk (`append` writes the frame and the
//! payload straight from the caller's slice, then fsyncs before
//! returning), and a torn tail — a partial frame or a payload whose
//! checksum does not match — is detected on open and truncated away so
//! the run resumes from the last sealed record. Records are
//! self-contained full snapshots, so only the last good one matters.
//!
//! Record payloads are checksummed with [`record_checksum`], a 4-lane
//! word-at-a-time hash that keeps up with the disk (FNV-1a's
//! byte-serial multiply chain does not), and resume streams the file
//! one record at a time through one reused buffer, so opening a
//! journal needs memory for its largest record, not for the file.

use crate::codec::CodecError;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::Path;

/// Journal magic bytes (`SSJ` + format generation).
pub const MAGIC: [u8; 4] = *b"SSJ1";

/// Bytes occupied by the fixed header.
pub const HEADER_LEN: u64 = 32;

/// Bytes of framing preceding each record payload (len + checksum).
pub const FRAME_LEN: u64 = 12;

/// FNV-1a 64-bit hash — the journal's header checksum and the
/// scenario config fingerprint (record payloads use the faster
/// [`record_checksum`]). Not cryptographic; it guards against torn
/// writes and bit rot, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;

/// One hash step: a bijection of the state for a fixed word and of the
/// word for a fixed state, so no single-word change can cancel out.
/// The rotation carries each product's high bits down into the low
/// bits the next multiply spreads upwards.
#[inline(always)]
fn mix(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(PRIME_1).rotate_left(29)
}

#[inline(always)]
fn word_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8-byte window"))
}

/// The journal's record checksum: a hash over little-endian 64-bit
/// words, run on four independent lanes (32 bytes per step) so the
/// multiplies pipeline instead of forming FNV-1a's one serial
/// byte-at-a-time chain. The lanes, the length, and the trailing words
/// (the last one zero-padded) are then folded into one state and
/// finished with a xorshift-multiply avalanche. Every step is a
/// bijection, so changing any single word — in particular flipping any
/// single bit — always changes the result. Like [`fnv1a64`] it guards
/// against torn writes and bit rot, not adversaries.
pub fn record_checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [PRIME_1, PRIME_2, PRIME_3, PRIME_4];
    let mut stripes = bytes.chunks_exact(32);
    for stripe in &mut stripes {
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = mix(*lane, word_at(stripe, 8 * i));
        }
    }
    let mut hash = lanes.into_iter().fold(bytes.len() as u64, mix);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = mix(hash, word_at(word, 0));
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut last = [0u8; 8];
        last[..rest.len()].copy_from_slice(rest);
        hash = mix(hash, u64::from_le_bytes(last));
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(PRIME_2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(PRIME_3);
    hash ^ (hash >> 32)
}

/// Identity of a run: what must match for a resume to be legal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalMeta {
    /// Snapshot schema version; bumped whenever any snapshot layout
    /// changes. Resume across versions is rejected, never guessed.
    pub schema_version: u32,
    /// The scenario's RNG seed.
    pub seed: u64,
    /// Fingerprint of the scenario configuration that shapes the run's
    /// result (execution knobs such as the worker count excluded).
    pub config_fingerprint: u64,
}

/// A journal failure, typed so callers can distinguish "wrong run"
/// from "damaged file" from plain I/O.
#[derive(Debug)]
pub enum JournalError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file is not a SleepScale journal (or its header is torn).
    BadMagic,
    /// The journal was written by a different snapshot schema.
    SchemaMismatch {
        /// Version recorded in the journal header.
        found: u32,
        /// Version this binary expects.
        expected: u32,
    },
    /// The journal belongs to a run with a different RNG seed.
    SeedMismatch {
        /// Seed recorded in the journal header.
        found: u64,
        /// Seed of the scenario attempting to resume.
        expected: u64,
    },
    /// The journal belongs to a different scenario configuration.
    ConfigMismatch {
        /// Fingerprint recorded in the journal header.
        found: u64,
        /// Fingerprint of the scenario attempting to resume.
        expected: u64,
    },
    /// Structural damage beyond what tail truncation can repair.
    Corrupt(String),
    /// A sealed payload failed to decode.
    Codec(CodecError),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::BadMagic => write!(f, "not a SleepScale journal (bad magic)"),
            JournalError::SchemaMismatch { found, expected } => {
                write!(f, "schema mismatch: journal v{found}, this binary expects v{expected}")
            }
            JournalError::SeedMismatch { found, expected } => {
                write!(f, "seed mismatch: journal seed {found}, scenario seed {expected}")
            }
            JournalError::ConfigMismatch { found, expected } => write!(
                f,
                "config mismatch: journal fingerprint {found:#018x}, \
                 scenario fingerprint {expected:#018x}"
            ),
            JournalError::Corrupt(reason) => write!(f, "corrupt journal: {reason}"),
            JournalError::Codec(e) => write!(f, "journal payload decode: {e}"),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io(e) => Some(e),
            JournalError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for JournalError {
    fn from(e: std::io::Error) -> JournalError {
        JournalError::Io(e)
    }
}

impl From<CodecError> for JournalError {
    fn from(e: CodecError) -> JournalError {
        JournalError::Codec(e)
    }
}

fn encode_header(meta: &JournalMeta) -> [u8; HEADER_LEN as usize] {
    let mut header = [0u8; HEADER_LEN as usize];
    header[0..4].copy_from_slice(&MAGIC);
    header[4..8].copy_from_slice(&meta.schema_version.to_le_bytes());
    header[8..16].copy_from_slice(&meta.seed.to_le_bytes());
    header[16..24].copy_from_slice(&meta.config_fingerprint.to_le_bytes());
    let checksum = fnv1a64(&header[0..24]);
    header[24..32].copy_from_slice(&checksum.to_le_bytes());
    header
}

/// An open, append-ready journal file.
#[derive(Debug)]
pub struct Journal {
    file: File,
    records: u64,
}

impl Journal {
    /// Creates (or truncates) a journal at `path` and writes its
    /// header durably.
    pub fn create(path: &Path, meta: &JournalMeta) -> Result<Journal, JournalError> {
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(true).open(path)?;
        file.write_all(&encode_header(meta))?;
        file.sync_data()?;
        Ok(Journal { file, records: 0 })
    }

    /// Opens an existing journal for resume.
    ///
    /// Validates the header against `expected` (typed errors on any
    /// mismatch), then streams the record stream one frame at a time
    /// through a single reused payload buffer, verifying every
    /// record's checksum. The scan stops at the first torn or
    /// checksum-failing frame, the file is truncated to the end of the
    /// last good record, and that record's payload is returned —
    /// `None` when no record survived, meaning the run restarts from
    /// scratch under the same header. No buffer is ever sized from a
    /// length prefix larger than the bytes left in the file, so memory
    /// is bounded by the largest record actually present.
    pub fn open_resume(
        path: &Path,
        expected: &JournalMeta,
    ) -> Result<(Journal, Option<Vec<u8>>), JournalError> {
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        let file_len = file.metadata()?.len();
        let mut header = [0u8; HEADER_LEN as usize];
        if file_len < HEADER_LEN {
            return Err(JournalError::BadMagic);
        }
        file.read_exact(&mut header)?;
        if header[0..4] != MAGIC {
            return Err(JournalError::BadMagic);
        }
        let field = |at: usize| u64::from_le_bytes(header[at..at + 8].try_into().expect("8 bytes"));
        if field(24) != fnv1a64(&header[0..24]) {
            return Err(JournalError::Corrupt("header checksum mismatch".into()));
        }
        let found = JournalMeta {
            schema_version: u32::from_le_bytes(header[4..8].try_into().expect("4 bytes")),
            seed: field(8),
            config_fingerprint: field(16),
        };
        if found.schema_version != expected.schema_version {
            return Err(JournalError::SchemaMismatch {
                found: found.schema_version,
                expected: expected.schema_version,
            });
        }
        if found.seed != expected.seed {
            return Err(JournalError::SeedMismatch { found: found.seed, expected: expected.seed });
        }
        if found.config_fingerprint != expected.config_fingerprint {
            return Err(JournalError::ConfigMismatch {
                found: found.config_fingerprint,
                expected: expected.config_fingerprint,
            });
        }

        // Scan sealed records; stop at the first damaged frame. The
        // buffer only grows (zero-filled once per new high-water mark)
        // and `held` says whether it still holds the last good payload.
        let capacity = (file_len - HEADER_LEN).min(1 << 16) as usize;
        let mut reader = BufReader::with_capacity(capacity, &file);
        let mut buf = Vec::new();
        let mut last: Option<(u64, usize)> = None;
        let mut held = false;
        let mut records = 0u64;
        let mut good_end = HEADER_LEN;
        while file_len - good_end >= FRAME_LEN {
            let mut frame = [0u8; FRAME_LEN as usize];
            reader.read_exact(&mut frame)?;
            let len = u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes"));
            let checksum = u64::from_le_bytes(frame[4..12].try_into().expect("8 bytes"));
            let payload_start = good_end + FRAME_LEN;
            if file_len - payload_start < u64::from(len) {
                break; // torn tail: frame promises more bytes than exist
            }
            let len = len as usize;
            if buf.len() < len {
                buf.resize(len, 0);
            }
            held = false;
            reader.read_exact(&mut buf[..len])?;
            if record_checksum(&buf[..len]) != checksum {
                break; // bit rot or torn payload
            }
            good_end = payload_start + len as u64;
            last = Some((payload_start, len));
            held = true;
            records += 1;
        }
        drop(reader);
        let last_payload = match last {
            Some((start, len)) => {
                if !held {
                    // A damaged frame after it overwrote the buffer.
                    file.seek(SeekFrom::Start(start))?;
                    file.read_exact(&mut buf[..len])?;
                }
                buf.truncate(len);
                Some(buf)
            }
            None => None,
        };
        if good_end < file_len {
            file.set_len(good_end)?;
            file.sync_data()?;
        }
        file.seek(SeekFrom::Start(good_end))?;
        Ok((Journal { file, records }, last_payload))
    }

    /// Appends one sealed record and makes it durable before
    /// returning: after `append` succeeds, a crash at any later point
    /// leaves this record recoverable. The frame and the payload are
    /// written straight from their own buffers — the payload is never
    /// copied.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), JournalError> {
        let len = u32::try_from(payload.len())
            .map_err(|_| JournalError::Corrupt("record exceeds u32 length frame".into()))?;
        let mut frame = [0u8; FRAME_LEN as usize];
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        frame[4..12].copy_from_slice(&record_checksum(payload).to_le_bytes());
        self.file.write_all(&frame)?;
        self.file.write_all(payload)?;
        self.file.sync_data()?;
        self.records += 1;
        Ok(())
    }

    /// Sealed records currently in the journal.
    pub fn records(&self) -> u64 {
        self.records
    }
}

/// Deterministic fault-injection plan: at which epoch boundary (if
/// any) the run should abort after committing its record. Epochs are
/// 0-indexed; `after_epoch(k)` means "journal epoch k, then die".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KillPlan {
    kill_after: Option<usize>,
}

impl KillPlan {
    /// Never aborts — the run completes and stays journaled.
    pub fn never() -> KillPlan {
        KillPlan::default()
    }

    /// Aborts immediately after the record for epoch `k` commits.
    pub fn after_epoch(k: usize) -> KillPlan {
        KillPlan { kill_after: Some(k) }
    }

    /// Whether the run should abort after this epoch's record.
    pub fn should_kill(&self, epoch: usize) -> bool {
        self.kill_after == Some(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("sleepscale-journal-test-{}-{name}.ssj", std::process::id()));
        p
    }

    fn meta() -> JournalMeta {
        JournalMeta { schema_version: 1, seed: 42, config_fingerprint: 0xFEED }
    }

    #[test]
    fn create_append_resume_returns_last_record() {
        let path = temp_path("basic");
        let mut j = Journal::create(&path, &meta()).unwrap();
        j.append(b"epoch-0").unwrap();
        j.append(b"epoch-1").unwrap();
        j.append(b"epoch-2").unwrap();
        drop(j);
        let (j, last) = Journal::open_resume(&path, &meta()).unwrap();
        assert_eq!(j.records(), 3);
        assert_eq!(last.as_deref(), Some(&b"epoch-2"[..]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn empty_journal_resumes_from_scratch() {
        let path = temp_path("empty");
        Journal::create(&path, &meta()).unwrap();
        let (j, last) = Journal::open_resume(&path, &meta()).unwrap();
        assert_eq!(j.records(), 0);
        assert!(last.is_none());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_truncates_to_last_sealed_record() {
        let path = temp_path("torn");
        let mut j = Journal::create(&path, &meta()).unwrap();
        j.append(b"epoch-0").unwrap();
        j.append(b"epoch-1-longer-payload").unwrap();
        drop(j);
        let full = std::fs::metadata(&path).unwrap().len();
        // Rip off the last few bytes of the second record.
        crate::fault::truncate_tail(&path, 5).unwrap();
        let (j, last) = Journal::open_resume(&path, &meta()).unwrap();
        assert_eq!(j.records(), 1);
        assert_eq!(last.as_deref(), Some(&b"epoch-0"[..]));
        assert!(std::fs::metadata(&path).unwrap().len() < full);
        // A resume after truncation can keep appending.
        let mut j = j;
        j.append(b"epoch-1-retry").unwrap();
        let (_, last) = Journal::open_resume(&path, &meta()).unwrap();
        assert_eq!(last.as_deref(), Some(&b"epoch-1-retry"[..]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn corrupted_payload_byte_truncates() {
        let path = temp_path("flip");
        let mut j = Journal::create(&path, &meta()).unwrap();
        j.append(b"epoch-0").unwrap();
        j.append(b"epoch-1").unwrap();
        drop(j);
        // Flip a byte inside the final payload.
        crate::fault::corrupt_tail(&path, 2).unwrap();
        let (j, last) = Journal::open_resume(&path, &meta()).unwrap();
        assert_eq!(j.records(), 1);
        assert_eq!(last.as_deref(), Some(&b"epoch-0"[..]));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn header_mismatches_are_typed() {
        let path = temp_path("mismatch");
        Journal::create(&path, &meta()).unwrap();
        let wrong_seed = JournalMeta { seed: 43, ..meta() };
        assert!(matches!(
            Journal::open_resume(&path, &wrong_seed),
            Err(JournalError::SeedMismatch { found: 42, expected: 43 })
        ));
        let wrong_schema = JournalMeta { schema_version: 2, ..meta() };
        assert!(matches!(
            Journal::open_resume(&path, &wrong_schema),
            Err(JournalError::SchemaMismatch { found: 1, expected: 2 })
        ));
        let wrong_config = JournalMeta { config_fingerprint: 0xBEEF, ..meta() };
        assert!(matches!(
            Journal::open_resume(&path, &wrong_config),
            Err(JournalError::ConfigMismatch { .. })
        ));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_header_is_rejected_not_truncated() {
        let path = temp_path("header");
        Journal::create(&path, &meta()).unwrap();
        // Corrupt a header byte (seed field).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[9] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Journal::open_resume(&path, &meta()), Err(JournalError::Corrupt(_))));
        // A file shorter than the header, or with wrong magic, is BadMagic.
        std::fs::write(&path, b"nope").unwrap();
        assert!(matches!(Journal::open_resume(&path, &meta()), Err(JournalError::BadMagic)));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn kill_plan_semantics() {
        assert!(!KillPlan::never().should_kill(0));
        assert!(!KillPlan::never().should_kill(999));
        let plan = KillPlan::after_epoch(3);
        assert!(!plan.should_kill(2));
        assert!(plan.should_kill(3));
        assert!(!plan.should_kill(4));
    }

    #[test]
    fn record_checksum_is_frozen() {
        // Schema-3 journals on disk depend on these exact values; a
        // change here needs a schema bump.
        let long: Vec<u8> = (0..100u8).collect();
        let got = [record_checksum(b""), record_checksum(b"foobar"), record_checksum(&long)];
        assert_eq!(got, [0x6CCE_C6E8_DB84_BEF6, 0x97EE_C1D5_B3A4_871F, 0x10C1_823B_C78E_027B]);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
