//! Decoder robustness of the journal's read side: the record checksum
//! notices every single-bit flip and every truncation, and
//! `Journal::open_resume` on arbitrary bytes after a valid header
//! returns `Ok` or a typed `JournalError` — it never panics and never
//! makes an allocation larger than the file it reads.
//!
//! The allocation bound is measured, not assumed: this test binary
//! installs a counting allocator that records the largest single
//! request made on the current thread.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sleepscale_journal::{record_checksum, Journal, JournalError, JournalMeta, FRAME_LEN};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::path::{Path, PathBuf};

struct LargestRequest;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown are not counted.
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for LargestRequest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestRequest = LargestRequest;

/// Runs `f` and returns its result with the largest single allocation
/// it made on this thread.
fn largest_allocation<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|l| l.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

fn journal_path(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sleepscale-decoder-robustness-{}-{tag}.ssj", std::process::id()));
    p
}

fn meta(seed: u64) -> JournalMeta {
    JournalMeta { schema_version: 3, seed, config_fingerprint: 11 }
}

/// A valid header followed by `records` appended through the journal
/// and then `raw` bytes written behind its back.
fn write_journal(path: &Path, meta: &JournalMeta, records: &[Vec<u8>], raw: &[u8]) -> u64 {
    let _ = std::fs::remove_file(path);
    let mut journal = Journal::create(path, meta).expect("create journal");
    for record in records {
        journal.append(record).expect("append record");
    }
    drop(journal);
    let mut file = std::fs::OpenOptions::new().append(true).open(path).expect("reopen journal");
    file.write_all(raw).expect("append raw bytes");
    drop(file);
    std::fs::metadata(path).expect("stat journal").len()
}

/// Checks one `open_resume` against the contract and returns how many
/// records it recovered.
fn check_open(path: &Path, meta: &JournalMeta, file_len: u64) -> Result<u64, TestCaseError> {
    let (result, largest) = largest_allocation(|| Journal::open_resume(path, meta));
    prop_assert!(
        largest as u64 <= file_len,
        "open_resume allocated {} bytes for a {}-byte file",
        largest,
        file_len
    );
    match result {
        Ok((journal, last)) => {
            let len = last.as_ref().map_or(0, Vec::len) as u64;
            prop_assert!(len + FRAME_LEN <= file_len, "payload longer than the file");
            prop_assert_eq!(last.is_none(), journal.records() == 0);
            Ok(journal.records())
        }
        // Any other typed error is acceptable on hostile bytes; what
        // matters is that it is typed and nothing panicked.
        Err(JournalError::Io(e)) => {
            Err(TestCaseError::fail(format!("plain I/O error on a readable file: {e}")))
        }
        Err(_) => Ok(0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every single-bit flip and every proper prefix of a payload
    /// changes its record checksum. Payloads end in a run of zero
    /// bytes, so a cut inside the zero-padded last word must be told
    /// apart by the length alone.
    #[test]
    fn record_checksum_sees_every_bit_flip_and_truncation(
        head in proptest::collection::vec(0u8..=255, 0..160),
        zeros in 0usize..40,
    ) {
        let mut payload = head;
        payload.resize(payload.len() + zeros, 0);
        let sum = record_checksum(&payload);
        let mut flipped = payload.clone();
        for bit in 0..8 * payload.len() {
            flipped[bit / 8] ^= 1 << (bit % 8);
            prop_assert!(record_checksum(&flipped) != sum, "flip of bit {} went unseen", bit);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
        for cut in 0..payload.len() {
            prop_assert!(record_checksum(&payload[..cut]) != sum, "cut at {} went unseen", cut);
        }
    }

    /// Arbitrary bytes after a valid header: `Ok` or a typed error,
    /// never a panic, never an allocation past the file's length, and
    /// a re-open after the truncation it made recovers the same
    /// records and leaves the file alone.
    #[test]
    fn open_resume_on_arbitrary_bytes_is_typed_and_bounded(
        raw in proptest::collection::vec(0u8..=255, 0..96),
        seed in 0u64..1_000,
    ) {
        let meta = meta(seed);
        let path = journal_path("raw");
        let file_len = write_journal(&path, &meta, &[], &raw);
        let records = check_open(&path, &meta, file_len)?;
        let kept = std::fs::metadata(&path).expect("stat journal").len();
        prop_assert_eq!(check_open(&path, &meta, kept)?, records);
        prop_assert_eq!(std::fs::metadata(&path).expect("stat journal").len(), kept);
        let _ = std::fs::remove_file(&path);
    }

    /// Sealed records followed by garbage, with one byte anywhere in
    /// the record region overwritten: the same contract holds, and
    /// never more records come back than were sealed.
    #[test]
    fn open_resume_on_damaged_records_is_typed_and_bounded(
        lens in proptest::collection::vec(0usize..64, 0..4),
        garbage in proptest::collection::vec(0u8..=255, 0..32),
        poke in 0u64..100_000,
        byte in 0u8..=255,
    ) {
        let meta = meta(7);
        let path = journal_path("damaged");
        let records: Vec<Vec<u8>> =
            lens.iter().enumerate().map(|(i, &n)| vec![i as u8 ^ 0x5A; n]).collect();
        let file_len = write_journal(&path, &meta, &records, &garbage);
        let mut bytes = std::fs::read(&path).expect("read journal");
        let region = bytes.len() - 32;
        if region > 0 {
            bytes[32 + (poke % region as u64) as usize] = byte;
            std::fs::write(&path, &bytes).expect("rewrite journal");
        }
        let recovered = check_open(&path, &meta, file_len)?;
        prop_assert!(recovered <= records.len() as u64, "recovered {} of {}", recovered, records.len());
        let _ = std::fs::remove_file(&path);
    }
}

/// A frame whose length prefix claims 4 GiB after a sealed record is a
/// torn tail: nothing is sized from it, and the file is cut back to the
/// end of the sealed record.
#[test]
fn hostile_length_prefix_is_torn_tail_not_allocation() {
    let meta = meta(1);
    let path = journal_path("hostile");
    let mut frame = u32::MAX.to_le_bytes().to_vec();
    frame.extend_from_slice(&[0xAB; 8]);
    frame.extend_from_slice(b"tiny");
    let file_len = write_journal(&path, &meta, &[b"sealed".to_vec()], &frame);
    let (result, largest) = largest_allocation(|| Journal::open_resume(&path, &meta));
    let (journal, last) = result.expect("a torn tail is recoverable");
    assert!(largest as u64 <= file_len, "allocated {largest} for a {file_len}-byte file");
    assert_eq!(journal.records(), 1);
    assert_eq!(last.as_deref(), Some(&b"sealed"[..]));
    assert_eq!(std::fs::metadata(&path).unwrap().len(), file_len - frame.len() as u64);
    let _ = std::fs::remove_file(&path);
}
