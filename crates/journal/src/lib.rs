//! Crash-safe checkpoint/resume for SleepScale runs (PR 8).
//!
//! SleepScale is an online policy: Algorithm 1 runs every epoch,
//! forever, so long-horizon fleet runs must survive being killed.
//! This crate supplies the three pieces beneath that guarantee:
//!
//! * a hand-rolled little-endian [`codec`] and the [`Snapshot`] trait
//!   every piece of engine state implements (the workspace `serde`
//!   stand-in is marker-only, so snapshots carry their own bytes),
//! * the append-only, checksum-framed, fsync-per-record [`Journal`]
//!   with a versioned header that rejects mismatched resumes with a
//!   typed [`JournalError`] and truncates torn tails to the last
//!   sealed record instead of failing the run,
//! * the fault-injection primitives — [`KillPlan`],
//!   [`fault::truncate_tail`], [`fault::corrupt_tail`] — the `resume`
//!   gate uses to prove kill-at-every-epoch × resume ≡ uninterrupted,
//!   byte for byte.
//!
//! The crate is a leaf: it depends only on the workspace `rand`
//! stand-in (to snapshot RNG state) so every engine crate can depend
//! on it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod fault;
mod journal;

pub use codec::{ByteReader, ByteWriter, CodecError, Snapshot};
pub use journal::{
    fnv1a64, record_checksum, Journal, JournalError, JournalMeta, KillPlan, FRAME_LEN, HEADER_LEN,
    MAGIC,
};
